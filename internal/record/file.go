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
// mismatch, a truncated segment, a missing end segment, a dictionary ID
// out of range — returns an error naming the offending segment; hostile
// inputs can never panic or allocate beyond the claimed (and capped)
// segment sizes.
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
	var payload []byte
	for seg := 0; ; seg++ {
		h, err := sr.Next()
		if errors.Is(err, io.EOF) {
			// The end segment: the file is complete, so resolve its
			// dictionary references.
			for _, t := range []*Table{&f.Runs, &f.Activations, &f.Samples} {
				if err := resolveStrings(t, f.Strings); err != nil {
					return nil, err
				}
			}
			return f, nil
		}
		if err != nil {
			return nil, err
		}
		if payload, err = sr.Payload(payload); err != nil {
			return nil, err
		}
		if reserved := h.Tag >> 32; reserved != 0 {
			return nil, fmt.Errorf("record: segment %d: nonzero reserved field %#x", seg, reserved)
		}
		kind, rows := segKind(h.Tag), int(h.Count)
		if rows > maxSegRows {
			return nil, fmt.Errorf("record: segment %d: row count %d exceeds %d", seg, rows, maxSegRows)
		}
		switch kind {
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
