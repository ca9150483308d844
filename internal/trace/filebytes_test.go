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
		wantLen    = 21822
		wantSHA256 = "08f61ba538f94f31c7e3377cfee04f76da052d375a2970876180647a5d06a9a5"
	)
	data := writeChunked(t, benchBuffer(t, 5000), 0x0dbc0ffee, 512)
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); len(data) != wantLen || got != wantSHA256 {
		t.Fatalf("chunk file: %d bytes, sha256 %s; want %d bytes, sha256 %s", len(data), got, wantLen, wantSHA256)
	}
}
