// Package segfile is the CRC-guarded segment container that chunked
// trace files (internal/trace) and run recordings (internal/record) are
// built on. A file is an 8-byte magic, chosen per format, followed by
// segments and closed by an end segment. Each segment is a 24-byte
// little-endian header followed by its payload:
//
//	[0:4]   count (u32): what the payload holds, in the format's units
//	[4:8]   payload length (u32), at most MaxPayload
//	[8:12]  segment index (u32, consecutive from 0)
//	[12:16] CRC-32 (IEEE) of the payload (u32)
//	[16:24] tag (u64), opaque to this package
//
// The end segment is a bare header at the next index whose payload
// length is endLen, a length no data segment can carry, and whose other
// fields are zero; nothing follows it. This package alone decides where
// a file ends: the Reader returns io.EOF only after the end segment, so
// a file cut anywhere, even at a segment boundary, fails by name. It
// also checks the magic, index continuity (catching a missing or
// reordered segment), the payload cap, and every payload's CRC. The
// payload codec and the meaning of count and tag belong to the format.
package segfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// HeaderSize is the fixed header preceding every payload.
	HeaderSize = 24

	// MaxPayload bounds one segment's payload. The Writer refuses a
	// larger payload and the Reader rejects a header claiming one, so a
	// corrupt or hostile length field cannot demand an absurd
	// allocation.
	MaxPayload = 1 << 28

	// endLen is the payload length that marks the end segment: above
	// MaxPayload, so no data segment can carry it.
	endLen = 1<<32 - 1

	// readStep is the growth step for a payload that does not fit the
	// caller's buffer: a corrupt length is detected by truncation before
	// a large allocation is committed.
	readStep = 1 << 20
)

// A Format is one file format built on the container.
type Format struct {
	// Magic opens every file of the format; its last byte is
	// conventionally the format version.
	Magic [8]byte
	// BadMagic is returned for a stream that does not open with Magic;
	// a stream that ends inside the magic returns it wrapped.
	BadMagic error
	// Segment names a segment in errors: "trace: chunk" reports
	// "trace: chunk 3: crc mismatch ...".
	Segment string
}

func (f *Format) errorf(index int, format string, args ...any) error {
	return fmt.Errorf("%s %d: "+format, append([]any{f.Segment, index}, args...)...)
}

// A Header is the part of a segment header that belongs to the format.
type Header struct {
	Count uint32
	Len   uint32
	Tag   uint64
}

// Writer writes one file: the magic, lazily before the first segment,
// then segments with consecutive indexes, then, on End, the end
// segment.
type Writer struct {
	w        io.Writer
	f        *Format
	started  bool
	off      int64
	segments int
	hdr      [HeaderSize]byte
}

// NewWriter returns a Writer of format f over w.
func NewWriter(w io.Writer, f *Format) *Writer { return &Writer{w: w, f: f} }

func (w *Writer) write(p []byte) error {
	n, err := w.w.Write(p)
	w.off += int64(n)
	return err
}

// header writes the magic unless it is already written, then one
// segment header at the next index. The header buffer is reused, so it
// allocates nothing.
func (w *Writer) header(count, length, crc uint32, tag uint64) error {
	if !w.started {
		w.started = true
		if err := w.write(w.f.Magic[:]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(w.hdr[0:4], count)
	binary.LittleEndian.PutUint32(w.hdr[4:8], length)
	binary.LittleEndian.PutUint32(w.hdr[8:12], uint32(w.segments))
	binary.LittleEndian.PutUint32(w.hdr[12:16], crc)
	binary.LittleEndian.PutUint64(w.hdr[16:24], tag)
	return w.write(w.hdr[:])
}

// Write appends one segment. It allocates nothing.
func (w *Writer) Write(count uint32, tag uint64, payload []byte) error {
	if len(payload) > MaxPayload {
		return w.f.errorf(w.segments, "payload %d bytes exceeds %d", len(payload), MaxPayload) //odbgc:alloc-ok error path formats its report
	}
	if err := w.header(count, uint32(len(payload)), crc32.ChecksumIEEE(payload), tag); err != nil {
		return err
	}
	if err := w.write(payload); err != nil {
		return err
	}
	w.segments++
	return nil
}

// End closes the file with the end segment, after the magic when no
// segment was written. Nothing may be written after it: a reader
// rejects bytes after the end segment.
func (w *Writer) End() error { return w.header(0, endLen, 0, 0) }

// Offset reports the number of bytes written so far.
func (w *Writer) Offset() int64 { return w.off }

// Reader reads one file strictly in order: Next reads a segment's
// header, then Payload or Skip consumes its payload. Framing errors name
// the segment with the format's noun.
type Reader struct {
	r        io.Reader
	f        *Format
	started  bool
	ended    bool
	segments int // headers accepted so far: the index the next must carry
	crc      uint32
	left     int64 // payload bytes of the current segment not yet consumed
	hdr      [HeaderSize]byte
}

// NewReader returns a Reader of format f over r. The magic is checked on
// the first Next call.
func NewReader(r io.Reader, f *Format) *Reader { return &Reader{r: r, f: f} }

func (r *Reader) start() error {
	if r.started {
		return nil
	}
	r.started = true
	magic := r.hdr[:len(r.f.Magic)]
	_, err := io.ReadFull(r.r, magic)
	switch {
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("%w: truncated header", r.f.BadMagic)
	case err != nil:
		return err // an I/O failure, not a verdict on the contents
	case [8]byte(magic) != r.f.Magic:
		return r.f.BadMagic
	}
	return nil
}

// Next reads and checks the next segment header; the caller consumes
// the previous segment's payload with Payload or Skip first. It returns
// io.EOF once the end segment has been read with nothing after it, and
// an error naming the missing end segment at a bare end of file.
func (r *Reader) Next() (Header, error) {
	if r.ended {
		return Header{}, io.EOF
	}
	if err := r.start(); err != nil {
		return Header{}, err
	}
	_, err := io.ReadFull(r.r, r.hdr[:])
	switch {
	case errors.Is(err, io.EOF):
		return Header{}, r.f.errorf(r.segments, "missing end segment")
	case errors.Is(err, io.ErrUnexpectedEOF):
		return Header{}, r.f.errorf(r.segments, "truncated header: %w", err)
	case err != nil:
		return Header{}, err
	}
	h := Header{
		Count: binary.LittleEndian.Uint32(r.hdr[0:4]),
		Len:   binary.LittleEndian.Uint32(r.hdr[4:8]),
		Tag:   binary.LittleEndian.Uint64(r.hdr[16:24]),
	}
	r.crc = binary.LittleEndian.Uint32(r.hdr[12:16])
	switch index := binary.LittleEndian.Uint32(r.hdr[8:12]); {
	case index != uint32(r.segments):
		return h, r.f.errorf(r.segments, "header names segment %d (missing or reordered segment)", index)
	case h.Len == endLen && h.Count == 0 && h.Tag == 0 && r.crc == 0:
		return Header{}, r.end()
	case h.Len > MaxPayload:
		return h, r.f.errorf(r.segments, "implausible payload length %d (cap %d)", h.Len, MaxPayload)
	}
	r.left = int64(h.Len)
	r.segments++
	return h, nil
}

// end accepts the end segment just read if nothing follows it.
func (r *Reader) end() error {
	r.ended = true
	switch _, err := io.ReadFull(r.r, r.hdr[:1]); {
	case err == nil:
		return r.f.errorf(r.segments, "data after end segment")
	case errors.Is(err, io.EOF):
		return io.EOF
	default:
		return err
	}
}

// Payload reads the current segment's payload into buf's storage,
// growing it in bounded steps, and verifies its CRC.
func (r *Reader) Payload(buf []byte) ([]byte, error) {
	n := int(r.left)
	r.left = 0
	var err error
	if cap(buf) >= n {
		buf = buf[:n]
		_, err = io.ReadFull(r.r, buf)
	} else {
		buf = buf[:0]
		for len(buf) < n && err == nil {
			start := len(buf)
			buf = append(buf, make([]byte, min(n-start, readStep))...)
			_, err = io.ReadFull(r.r, buf[start:])
		}
	}
	if err != nil {
		return buf, r.f.errorf(r.segments-1, "truncated payload: %w", noEOF(err))
	}
	if got := crc32.ChecksumIEEE(buf); got != r.crc {
		return buf, r.f.errorf(r.segments-1, "crc mismatch (header %#08x, payload %#08x)", r.crc, got)
	}
	return buf, nil
}

// Skip advances past the current segment's payload without reading or
// verifying it. Over an io.Seeker it seeks to the payload's last byte
// and reads only that byte, so a payload cut short by the end of the
// file still fails here; otherwise it discards the payload.
func (r *Reader) Skip() error {
	n := r.left
	r.left = 0
	if n == 0 {
		return nil
	}
	if s, ok := r.r.(io.Seeker); ok {
		if _, err := s.Seek(n-1, io.SeekCurrent); err == nil {
			n = 1
		}
	}
	if _, err := io.CopyN(io.Discard, r.r, n); err != nil {
		return r.f.errorf(r.segments-1, "truncated payload: %w", noEOF(err))
	}
	return nil
}

// noEOF reports an end of file inside a payload as the truncation it is.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
