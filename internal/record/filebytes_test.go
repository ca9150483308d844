package record

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestRecordFileBytes pins the .odbgcrec format byte for byte: the
// hand-built testRecorder recording must hash to the recorded digest.
// Any change to the magic, the segment header layout, the CRC, the
// column encoding, the index, or the trailer changes the digest; such a
// change is a format version bump, not a refactor.
func TestRecordFileBytes(t *testing.T) {
	const (
		wantLen    = 385
		wantSHA256 = "26d9a31f6f158a306879b0517e151dafcc90ee18e9d0ba602a4806270ca4fca7"
	)
	data := encode(t, testRecorder())
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); len(data) != wantLen || got != wantSHA256 {
		t.Fatalf("record file: %d bytes, sha256 %s; want %d bytes, sha256 %s", len(data), got, wantLen, wantSHA256)
	}
}
