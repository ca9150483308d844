package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"odbgc/internal/segfile"
)

// Column is one decoded column: I always holds the raw values (for
// string columns, dictionary IDs); S holds the resolved strings for
// string columns and is nil otherwise.
type Column struct {
	Name string
	Str  bool
	I    []int64
	S    []string
}

// Value renders row i as a string (the query layer's common currency).
func (c *Column) Value(i int) string {
	if c.Str {
		return c.S[i]
	}
	return fmt.Sprintf("%d", c.I[i])
}

// Table is one decoded table.
type Table struct {
	Name string
	Cols []Column
}

// Rows reports the table's row count.
func (t *Table) Rows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return len(t.Cols[0].I)
}

// Col returns the named column, or nil.
func (t *Table) Col(name string) *Column {
	for i := range t.Cols {
		if t.Cols[i].Name == name {
			return &t.Cols[i]
		}
	}
	return nil
}

// File is one decoded recording.
type File struct {
	// Strings is the file-wide dictionary.
	Strings []string
	// Runs, Activations, Samples are the three tables.
	Runs        Table
	Activations Table
	Samples     Table
}

// Table returns the named table ("runs", "activations", "samples").
func (f *File) Table(name string) (*Table, error) {
	switch name {
	case "runs":
		return &f.Runs, nil
	case "activations":
		return &f.Activations, nil
	case "samples":
		return &f.Samples, nil
	}
	return nil, fmt.Errorf("record: no table %q (want runs, activations, or samples)", name)
}

// ReadFile reads and decodes a recording from path.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Read(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func newTable(kind segKind) Table {
	schema, name := schemaFor(kind)
	t := Table{Name: name, Cols: make([]Column, len(schema))}
	for i, c := range schema {
		t.Cols[i] = Column{Name: c.name, Str: c.str}
	}
	return t
}

// Read decodes a recording. Every structural defect — bad magic, a CRC
// mismatch, a truncated segment, an index that disagrees with the file
// layout, a dictionary ID out of range — returns an error naming the
// offending segment; hostile inputs can never panic or allocate beyond
// the claimed (and capped) segment sizes.
func Read(data []byte) (*File, error) {
	f := &File{
		Runs:        newTable(kindRuns),
		Activations: newTable(kindActivations),
		Samples:     newTable(kindSamples),
	}
	tables := map[segKind]*Table{
		kindRuns:        &f.Runs,
		kindActivations: &f.Activations,
		kindSamples:     &f.Samples,
	}
	sr := segfile.NewReader(bytes.NewReader(data), &fileFormat)
	var observed []indexEntry
	var payload []byte
	for seg := 0; ; seg++ {
		h, err := sr.Next()
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("record: segment %d: missing index segment", seg)
		}
		if err != nil {
			return nil, err
		}
		segOff := sr.Offset() - segfile.HeaderSize
		if payload, err = sr.Payload(payload); err != nil {
			return nil, err
		}
		if reserved := h.Tag >> 32; reserved != 0 {
			return nil, fmt.Errorf("record: segment %d: nonzero reserved field %#x", seg, reserved)
		}
		kind, rows := segKind(h.Tag), int(h.Count)
		if kind != kindIndex && rows > maxSegRows {
			return nil, fmt.Errorf("record: segment %d: row count %d exceeds %d", seg, rows, maxSegRows)
		}
		switch kind {
		case kindIndex:
			// The index is the final segment: verify it against the
			// observed layout and the trailer, resolve dictionary
			// references, and the file is complete.
			if err := verifyIndex(payload, rows, observed, seg); err != nil {
				return nil, err
			}
			trailer := data[sr.Offset():]
			if len(trailer) != trailerSize {
				return nil, fmt.Errorf("record: segment %d: %d trailing bytes after index (want a %d-byte trailer)", seg, len(trailer), trailerSize)
			}
			if got := int64(binary.LittleEndian.Uint64(trailer[0:8])); got != segOff {
				return nil, fmt.Errorf("record: trailer index offset %d disagrees with index segment at %d", got, segOff)
			}
			if string(trailer[8:]) != string(trailerMagic[:]) {
				return nil, fmt.Errorf("record: bad trailer magic")
			}
			for _, t := range []*Table{&f.Runs, &f.Activations, &f.Samples} {
				if err := resolveStrings(t, f.Strings); err != nil {
					return nil, err
				}
			}
			return f, nil
		case kindDict:
			if err := decodeDictSegment(f, payload, rows, seg); err != nil {
				return nil, err
			}
		case kindRuns, kindActivations, kindSamples:
			if err := decodeTableSegment(tables[kind], payload, rows, seg); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("record: segment %d: unknown kind %d", seg, kind)
		}
		observed = append(observed, indexEntry{kind: kind, offset: segOff, rows: rows})
	}
}

func decodeDictSegment(f *File, payload []byte, rows, seg int) error {
	p := payload
	for i := 0; i < rows; i++ {
		l, n := binary.Uvarint(p)
		if n <= 0 {
			return fmt.Errorf("record: segment %d: truncated dictionary entry %d", seg, i)
		}
		p = p[n:]
		if l > uint64(len(p)) {
			return fmt.Errorf("record: segment %d: dictionary entry %d: length %d exceeds remaining payload %d", seg, i, l, len(p))
		}
		f.Strings = append(f.Strings, string(p[:l]))
		p = p[l:]
	}
	if len(p) != 0 {
		return fmt.Errorf("record: segment %d: %d leftover bytes after %d dictionary entries", seg, len(p), rows)
	}
	return nil
}

func decodeTableSegment(t *Table, payload []byte, rows, seg int) error {
	p := payload
	for ci := range t.Cols {
		col := &t.Cols[ci]
		for r := 0; r < rows; r++ {
			v, n := decodeZigzag(p)
			if n <= 0 {
				return fmt.Errorf("record: segment %d: truncated %s column %s at row %d", seg, t.Name, col.Name, r)
			}
			p = p[n:]
			col.I = append(col.I, v)
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("record: segment %d: %d leftover bytes after %d %s rows", seg, len(p), rows, t.Name)
	}
	return nil
}

// verifyIndex checks the index segment against the segments actually
// read, so a file whose index lies about layout is rejected even though
// every individual segment is self-consistent.
func verifyIndex(payload []byte, rows int, observed []indexEntry, seg int) error {
	p := payload
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return fmt.Errorf("record: segment %d: truncated index count", seg)
	}
	p = p[n:]
	if count != uint64(rows) || count != uint64(len(observed)) {
		return fmt.Errorf("record: segment %d: index lists %d segments, file has %d", seg, count, len(observed))
	}
	for i, want := range observed {
		var vals [3]uint64
		for j := range vals {
			v, n := binary.Uvarint(p)
			if n <= 0 {
				return fmt.Errorf("record: segment %d: truncated index entry %d", seg, i)
			}
			vals[j], p = v, p[n:]
		}
		got := indexEntry{kind: segKind(vals[0]), offset: int64(vals[1]), rows: int(vals[2])}
		if got != want {
			return fmt.Errorf("record: segment %d: index entry %d (kind %d, offset %d, rows %d) disagrees with file layout (kind %d, offset %d, rows %d)",
				seg, i, got.kind, got.offset, got.rows, want.kind, want.offset, want.rows)
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("record: segment %d: %d leftover bytes after index", seg, len(p))
	}
	return nil
}

func resolveStrings(t *Table, strs []string) error {
	for ci := range t.Cols {
		col := &t.Cols[ci]
		if !col.Str {
			continue
		}
		col.S = make([]string, len(col.I))
		for i, id := range col.I {
			if id < 0 || id >= int64(len(strs)) {
				return fmt.Errorf("record: %s row %d: string id %d out of range (%d dictionary strings)", t.Name, i, id, len(strs))
			}
			col.S[i] = strs[id]
		}
	}
	return nil
}
