package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestChunkFileBytes pins the chunked file format byte for byte: a fixed
// synthetic trace written with a 512-byte chunk target (dozens of
// chunks) must hash to the recorded digest. Any change to the magic, the
// segment header layout, the CRC, or the packed event codec changes the
// digest; such a change is a format version bump, not a refactor.
func TestChunkFileBytes(t *testing.T) {
	const (
		wantLen    = 21798
		wantSHA256 = "c7600658e0d3490ce4a4227831ee5df762c3211a155def4586ef6d0000b688d7"
	)
	data := writeChunked(t, benchBuffer(t, 5000), 0x0dbc0ffee, 512)
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); len(data) != wantLen || got != wantSHA256 {
		t.Fatalf("chunk file: %d bytes, sha256 %s; want %d bytes, sha256 %s", len(data), got, wantLen, wantSHA256)
	}
}
