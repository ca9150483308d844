package record

import (
	"bytes"
	"strings"
	"testing"

	"odbgc/internal/segfile"
)

// segHeaderSize is the segment header preceding every payload, for
// tests that corrupt a payload in place.
const segHeaderSize = segfile.HeaderSize

// TestSegmentTagAndRowsChecked writes one well-framed segment whose tag
// or row count the record layer must refuse, naming segment 0.
func TestSegmentTagAndRowsChecked(t *testing.T) {
	cases := []struct {
		name string
		rows uint32
		tag  uint64
		want string
	}{
		{"reserved", 0, 1<<32 | uint64(kindDict), "record: segment 0: nonzero reserved field 0x1"},
		{"kind", 0, 99, "record: segment 0: unknown kind 99"},
		{"rows", maxSegRows + 1, uint64(kindRuns), "record: segment 0: row count 8193 exceeds 8192"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := segfile.NewWriter(&buf, &fileFormat).Write(c.rows, c.tag, []byte{0}); err != nil {
			t.Fatal(err)
		}
		_, err := Read(buf.Bytes())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}
