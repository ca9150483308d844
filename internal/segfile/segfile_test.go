package segfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

var errBadTestMagic = errors.New("test: bad magic")

var testFormat = Format{
	Magic:    [8]byte{'s', 'e', 'g', 't', 'e', 's', 't', 1},
	BadMagic: errBadTestMagic,
	Segment:  "test: seg",
}

// testFile writes three segments whose payloads differ in length and
// ends the file, and returns the file and each segment's offset, the end
// segment's last.
func testFile(t *testing.T) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, &testFormat)
	var offs []int
	for i, p := range []string{"alpha", "", "gamma-gamma"} {
		if err := w.Write(uint32(10+i), uint64(i)<<40|7, []byte(p)); err != nil {
			t.Fatal(err)
		}
		offs = append(offs, buf.Len()-HeaderSize-len(p))
	}
	offs = append(offs, buf.Len())
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	if w.Offset() != int64(buf.Len()) {
		t.Fatalf("Offset %d, want %d", w.Offset(), buf.Len())
	}
	return buf.Bytes(), offs
}

// readAll reads every segment, skipping the payloads when skip is set.
func readAll(r *Reader, skip bool) ([]Header, []string, error) {
	var hs []Header
	var ps []string
	var buf []byte
	for {
		h, err := r.Next()
		if err == io.EOF {
			return hs, ps, nil
		}
		if err != nil {
			return hs, ps, err
		}
		hs = append(hs, h)
		if skip {
			err = r.Skip()
		} else {
			buf, err = r.Payload(buf)
			ps = append(ps, string(buf))
		}
		if err != nil {
			return hs, ps, err
		}
	}
}

func TestRoundTrip(t *testing.T) {
	data, offs := testFile(t)
	if !bytes.Equal(data[:8], testFormat.Magic[:]) || offs[0] != 8 || offs[1] != 8+HeaderSize+5 || offs[2] != offs[1]+HeaderSize ||
		offs[3] != offs[2]+HeaderSize+11 || len(data) != offs[3]+HeaderSize {
		t.Fatalf("layout: magic %q, offsets %v, %d bytes", data[:8], offs, len(data))
	}
	// A Seeker (bytes.Reader) takes the seeking skip; a plain reader
	// takes the discarding one.
	for _, seeker := range []bool{true, false} {
		for _, skip := range []bool{false, true} {
			var src io.Reader = bytes.NewReader(data)
			if !seeker {
				src = iotest.OneByteReader(src)
			}
			r := NewReader(src, &testFormat)
			hs, ps, err := readAll(r, skip)
			if err != nil {
				t.Fatalf("skip=%v: %v", skip, err)
			}
			if len(hs) != 3 || hs[2] != (Header{Count: 12, Len: 11, Tag: 2<<40 | 7}) {
				t.Fatalf("skip=%v: headers %+v", skip, hs)
			}
			if !skip && strings.Join(ps, "|") != "alpha||gamma-gamma" {
				t.Fatalf("payloads %q", ps)
			}
			if _, err := r.Next(); err != io.EOF {
				t.Fatalf("skip=%v: Next after the end segment = %v, want io.EOF again", skip, err)
			}
		}
	}
}

func TestEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, &testFormat)
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8+HeaderSize {
		t.Fatalf("empty file is %d bytes, want the magic and the end segment", buf.Len())
	}
	if _, err := NewReader(bytes.NewReader(buf.Bytes()), &testFormat).Next(); err != io.EOF {
		t.Fatalf("Next on an empty file = %v, want io.EOF", err)
	}
}

// TestEndSegment checks that a file ends at its end segment and nowhere
// else: a file cut at any segment boundary, one with bytes after the end
// segment, and one whose end segment carries the wrong index or a
// nonzero field each fail naming the segment.
func TestEndSegment(t *testing.T) {
	data, offs := testFile(t)
	cases := []struct {
		name string
		edit func(d []byte) []byte
		want string
	}{
		{"magic only", func(d []byte) []byte { return d[:8] }, "test: seg 0: missing end segment"},
		{"cut after segment 0", func(d []byte) []byte { return d[:offs[1]] }, "test: seg 1: missing end segment"},
		{"cut after segment 1", func(d []byte) []byte { return d[:offs[2]] }, "test: seg 2: missing end segment"},
		{"cut after segment 2", func(d []byte) []byte { return d[:offs[3]] }, "test: seg 3: missing end segment"},
		{"bytes after the end", func(d []byte) []byte { return append(d, 0) }, "test: seg 3: data after end segment"},
		{"end at the wrong index", func(d []byte) []byte {
			return append(d[:offs[2]], d[offs[3]:]...)
		}, "test: seg 2: header names segment 3 (missing or reordered segment)"},
		{"end with a count", func(d []byte) []byte { d[offs[3]]++; return d }, "test: seg 3: implausible payload length 4294967295 (cap 268435456)"},
	}
	for _, c := range cases {
		for _, skip := range []bool{false, true} {
			d := c.edit(bytes.Clone(data))
			_, _, err := readAll(NewReader(bytes.NewReader(d), &testFormat), skip)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s (skip=%v): err = %v, want %q", c.name, skip, err, c.want)
			}
		}
	}
}

// TestFramingErrors corrupts a valid file one way at a time; each defect
// must fail with an error naming the segment it was found in.
func TestFramingErrors(t *testing.T) {
	data, offs := testFile(t)
	cases := []struct {
		name  string
		edit  func(d []byte) []byte
		want  string
		magic bool
	}{
		{"bad magic", func(d []byte) []byte { d[7]++; return d }, "test: bad magic", true},
		{"truncated magic", func(d []byte) []byte { return d[:5] }, "test: bad magic: truncated header", true},
		{"missing segment", func(d []byte) []byte {
			return append(d[:offs[1]], d[offs[2]:]...)
		}, "test: seg 1: header names segment 2 (missing or reordered segment)", false},
		{"reordered segment", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[offs[0]+8:], 1)
			return d
		}, "test: seg 0: header names segment 1", false},
		{"payload over cap", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[offs[2]+4:], MaxPayload+1)
			return d
		}, "test: seg 2: implausible payload length 268435457", false},
		{"crc mismatch", func(d []byte) []byte { d[offs[0]+HeaderSize+2] ^= 1; return d }, "test: seg 0: crc mismatch", false},
		{"truncated header", func(d []byte) []byte { return d[:offs[2]+10] }, "test: seg 2: truncated header: unexpected EOF", false},
		{"truncated payload", func(d []byte) []byte { return d[:offs[3]-1] }, "test: seg 2: truncated payload: unexpected EOF", false},
		{"truncated end segment", func(d []byte) []byte { return d[:len(d)-1] }, "test: seg 3: truncated header: unexpected EOF", false},
		{"missing payload", func(d []byte) []byte { return d[:offs[2]+HeaderSize] }, "test: seg 2: truncated payload: unexpected EOF", false},
	}
	for _, c := range cases {
		for _, skip := range []bool{false, true} {
			if skip && c.name == "crc mismatch" {
				continue // skipping never reads the payload
			}
			d := c.edit(bytes.Clone(data))
			_, _, err := readAll(NewReader(bytes.NewReader(d), &testFormat), skip)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s (skip=%v): err = %v, want %q", c.name, skip, err, c.want)
			}
			if errors.Is(err, errBadTestMagic) != c.magic {
				t.Errorf("%s: errors.Is(err, BadMagic) = %v, want %v", c.name, !c.magic, c.magic)
			}
		}
	}
}

// TestReadErrorIsNotBadMagic checks that an I/O failure while reading
// the magic surfaces as itself, not as a verdict on the contents.
func TestReadErrorIsNotBadMagic(t *testing.T) {
	boom := errors.New("boom")
	_, err := NewReader(iotest.ErrReader(boom), &testFormat).Next()
	if !errors.Is(err, boom) || errors.Is(err, errBadTestMagic) {
		t.Fatalf("err = %v, want the read error and not the bad magic", err)
	}
}
