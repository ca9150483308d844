package record

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestRecordFileBytes pins the .odbgcrec format byte for byte: the
// hand-built testRecorder recording must hash to the recorded digest.
// Any change to the magic, the segment header layout, the CRC, the
// column encoding, or the end segment changes the digest; such a change
// is a format version bump, not a refactor.
func TestRecordFileBytes(t *testing.T) {
	const (
		wantLen    = 353
		wantSHA256 = "b3ffa708df3463d5aa61a4a9eab735676e373773a2c4c7c1cd6816407512b173"
	)
	data := encode(t, testRecorder())
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); len(data) != wantLen || got != wantSHA256 {
		t.Fatalf("record file: %d bytes, sha256 %s; want %d bytes, sha256 %s", len(data), got, wantLen, wantSHA256)
	}
}
