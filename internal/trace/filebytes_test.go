package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestChunkFileBytes pins the chunked file format byte for byte: a fixed
// synthetic trace written with a 512-byte chunk target (dozens of
// chunks) must hash to the recorded digest. Any change to the magic, the
// segment header layout, the CRC, the end segment, or the packed event
// codec changes the digest; such a change is a format version bump, not
// a refactor.
func TestChunkFileBytes(t *testing.T) {
	const (
		wantLen    = 17997
		wantSHA256 = "7f72c8e775cc3a7776c3205c567b9e70ff8b7b4e76938cf38b0cd7334038dd98"
	)
	data := writeChunked(t, benchBuffer(t, 5000), 0x0dbc0ffee, 512)
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); len(data) != wantLen || got != wantSHA256 {
		t.Fatalf("chunk file: %d bytes, sha256 %s; want %d bytes, sha256 %s", len(data), got, wantLen, wantSHA256)
	}
}
