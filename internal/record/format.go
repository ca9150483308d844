// Package record captures structured run recordings — one row per
// collector activation, per time-series sample, and per finished run —
// and persists them in a segmented columnar file that odbgc-query can
// filter, aggregate, and turn back into the paper's Figure 4–6 series
// bit-identically.
//
// # File format
//
// A recording is an internal/segfile container: CRC-guarded segments
// after an 8-byte magic, closed by segfile's end segment, with errors
// that name the bad segment:
//
//	[8-byte magic "odbgcrc"+version]
//	[segment]... (dictionary first, then runs/activations/samples)
//	[end segment]
//
// A segment's count is its row count. The low 32 bits of its tag hold
// its kind; the high 32 bits are reserved and zero.
//
// Payloads are column-major zigzag-varint integers: a table segment
// holds up to maxSegRows rows of its fixed schema, each column's values
// contiguous. Strings (labels, policies, causes) are interned into one
// file-wide dictionary — dictionary segments carry length-prefixed
// bytes and precede every table segment that references them.
package record

import (
	"encoding/binary"
	"errors"

	"odbgc/internal/segfile"
)

var fileFormat = segfile.Format{
	// The version byte is 2: the file ends with segfile's end segment.
	Magic:    [8]byte{'o', 'd', 'b', 'g', 'c', 'r', 'c', 2},
	BadMagic: errors.New("record: bad magic (not a record file)"),
	Segment:  "record: segment",
}

// maxSegRows is the flush granularity: tables are split into fixed-size
// segments of at most this many rows.
const maxSegRows = 8192

// A segKind identifies a segment's payload format. Typing the kinds
// (rather than passing bare uint32s) puts every switch over them under
// the kindswitch analyzer: adding a fifth segment kind breaks the build
// at each consumer instead of silently falling through.
type segKind uint32

// Segment kinds.
const (
	kindDict segKind = 1 + iota
	kindRuns
	kindActivations
	kindSamples
)

// appendZigzag appends v in zigzag-varint form.
func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

// decodeZigzag decodes one zigzag-varint; n <= 0 means truncated or
// malformed input (binary.Uvarint's convention).
func decodeZigzag(p []byte) (int64, int) {
	uv, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, n
	}
	return int64(uv>>1) ^ -int64(uv&1), n
}
