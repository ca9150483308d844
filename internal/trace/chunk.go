package trace

import (
	"errors"
	"fmt"
	"io"

	"odbgc/internal/segfile"
)

// Chunked trace format: the on-disk form for traces too large to hold in
// memory. The file is an internal/segfile container: the chunk magic
// followed by any number of self-describing chunks, each a segment whose
// count is the chunk's event count and whose tag is the generating
// configuration's fingerprint. A payload is the packed opcode+uvarint
// encoding (codec.go). A reader decodes each payload exactly once into
// the columnar layout Buffer holds, so streamed replay drains the same
// zero-alloc fast path as the in-memory cache while only ever holding a
// bounded number of chunks.

// chunkMagic identifies chunked odbgc trace files; the trailing byte is
// the format version.
var chunkMagic = [8]byte{'o', 'd', 'b', 'g', 'c', 'c', 'k', 1}

// ErrBadChunkMagic is returned when a stream is not a chunked odbgc
// trace.
var ErrBadChunkMagic = errors.New("trace: bad magic (not a chunked odbgc trace file)")

// chunkFormat frames chunk files; a framing error reads
// "trace: chunk N: ...".
var chunkFormat = segfile.Format{Magic: chunkMagic, BadMagic: ErrBadChunkMagic, Segment: "trace: chunk"}

const (
	// DefaultChunkBytes is the payload-size target a ChunkWriter flushes
	// at when the caller does not choose one: large enough that header,
	// CRC, and pipeline overheads amortize to nothing, small enough that
	// a double-buffered reader stays tens of megabytes resident no
	// matter how large the trace is.
	DefaultChunkBytes = 4 << 20

	// maxEventBytes bounds one packed event (opcode plus at most five
	// 10-byte uvarints); the writer keeps this much slack in its payload
	// buffer so appending never reallocates.
	maxEventBytes = 64
)

// ChunkWriter encodes events into fixed-size chunks on an underlying
// stream. It implements Sink, so a workload generator can stream an
// arbitrarily long trace through it at constant memory. Call Flush once
// after the last event to write the final short chunk. Like Buffer.Emit,
// Emit rejects an operand above 2^32-1 by name, so every file it writes
// decodes into the 32-bit columns.
type ChunkWriter struct {
	seg         *segfile.Writer
	fingerprint uint64
	target      int
	payload     []byte
	events      int64 // events in the open chunk
	total       int64
}

// NewChunkWriter returns a ChunkWriter over w. fingerprint identifies
// the generating seed/configuration and is stamped into every chunk
// header so replay can refuse mixed or mislabeled files. chunkBytes is
// the payload-size flush target; values <= 0 select DefaultChunkBytes,
// and targets are clamped so a chunk never exceeds segfile.MaxPayload.
func NewChunkWriter(w io.Writer, fingerprint uint64, chunkBytes int) *ChunkWriter {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	chunkBytes = min(chunkBytes, segfile.MaxPayload-maxEventBytes)
	return &ChunkWriter{
		seg:         segfile.NewWriter(w, &chunkFormat),
		fingerprint: fingerprint,
		target:      chunkBytes,
		payload:     make([]byte, 0, chunkBytes+maxEventBytes),
	}
}

// Emit appends one event to the open chunk, flushing a finished chunk to
// the underlying stream when the payload target is reached. The
// steady-state path re-uses the payload buffer (its capacity covers the
// target plus one maximal event), so emitting allocates nothing (pinned
// by the chunk-writer AllocsPerRun guard).
//
//odbgc:hotpath
func (w *ChunkWriter) Emit(e Event) error {
	if err := e.Validate(); err != nil { //odbgc:alloc-ok error path formats its report
		return err
	}
	if err := checkOperands(e); err != nil {
		return fmt.Errorf("trace: event %d: %w", w.total, err) //odbgc:alloc-ok error path formats its report
	}
	w.payload = appendEvent(w.payload, e) //odbgc:alloc-ok amortized payload growth, reused across chunks
	w.events++
	w.total++
	if len(w.payload) >= w.target {
		return w.flushChunk()
	}
	return nil
}

// flushChunk writes the open chunk and resets the payload buffer for
// the next chunk.
func (w *ChunkWriter) flushChunk() error {
	if _, err := w.seg.Write(uint32(w.events), w.fingerprint, w.payload); err != nil {
		return err
	}
	w.events = 0
	w.payload = w.payload[:0]
	return nil
}

// Flush writes the final short chunk (and the magic, for an empty
// trace). The underlying stream is not flushed or closed; callers owning
// a bufio.Writer or file still flush/close it themselves.
func (w *ChunkWriter) Flush() error {
	if w.events > 0 {
		return w.flushChunk()
	}
	return w.seg.Start()
}

// Count reports the number of events emitted so far.
func (w *ChunkWriter) Count() int64 { return w.total }

// Chunks reports the number of complete chunks written so far.
func (w *ChunkWriter) Chunks() int { return w.seg.Segments() }

// Chunk is one decoded chunk: the columnar (Buffer-layout) form of its
// events plus the packed payload it was decoded from. A Chunk is reused
// across ChunkReader.Next calls — its buffers are recycled, so steady-
// state streaming performs no per-chunk allocation once the buffers have
// grown to the chunk size.
type Chunk struct {
	// Index is the chunk's position in the file, counted from 0.
	Index int
	// Fingerprint is the generating configuration's fingerprint stamped
	// in the chunk header.
	Fingerprint uint64

	payload []byte
	kinds   []Kind
	args    []uint32
}

// Len reports the number of events in the chunk.
func (c *Chunk) Len() int { return len(c.kinds) }

// PayloadBytes reports the packed payload size of the chunk.
func (c *Chunk) PayloadBytes() int { return len(c.payload) }

// SizeBytes reports the memory resident in the chunk's buffers (payload
// plus decoded columns); stream accounting charges this against cache
// budgets.
func (c *Chunk) SizeBytes() int64 {
	return int64(cap(c.payload)) + int64(cap(c.kinds)) + 4*int64(cap(c.args))
}

// decode rebuilds the chunk's columns from its payload, verifying that
// the payload holds exactly the header's event count and that every
// operand fits the 32-bit columns.
func (c *Chunk) decode(events int) error {
	c.kinds = c.kinds[:0]
	c.args = c.args[:0]
	data := c.payload
	for pos := 0; pos < len(data); {
		e, sz, err := decodeEvent(data[pos:])
		if err != nil {
			return fmt.Errorf("corrupt payload at event %d: %w", len(c.kinds), err)
		}
		pos += sz
		if c.kinds, c.args, err = pushColumns(c.kinds, c.args, e); err != nil {
			return fmt.Errorf("event %d: %w", len(c.kinds), err)
		}
	}
	if len(c.kinds) != events {
		return fmt.Errorf("header declares %d events, payload holds %d", events, len(c.kinds))
	}
	return nil
}

// Replay streams the chunk's events into sink in recording order. The
// replay performs no decoding and no heap allocation (pinned by the
// chunk-replay AllocsPerRun guard).
//
//odbgc:hotpath
func (c *Chunk) Replay(sink Sink) error { return replayColumns(c.kinds, c.args, sink) }

// ChunkReader decodes chunks from a stream produced by ChunkWriter. It
// reads strictly sequentially and verifies, per chunk: the CRC of the
// payload, the chunk index (catching missing or reordered chunks), and
// fingerprint consistency across the file. Every error names the chunk
// index it was detected in.
type ChunkReader struct {
	seg         *segfile.Reader
	chunks      int
	events      int64
	fingerprint uint64
}

// NewChunkReader returns a ChunkReader over r. The magic is checked on
// the first Next call.
func NewChunkReader(r io.Reader) *ChunkReader {
	return &ChunkReader{seg: segfile.NewReader(r, &chunkFormat)}
}

// header reads the next chunk header, refusing a fingerprint that
// differs from chunk 0's. It returns io.EOF at a clean end of trace.
func (r *ChunkReader) header() (segfile.Header, error) {
	h, err := r.seg.Next()
	if err == nil && r.chunks > 0 && h.Tag != r.fingerprint {
		err = fmt.Errorf("trace: chunk %d: fingerprint %#016x differs from chunk 0's %#016x (mixed trace files?)", r.chunks, h.Tag, r.fingerprint)
	}
	return h, err
}

// advance counts a chunk whose payload has been consumed.
func (r *ChunkReader) advance(h segfile.Header) {
	if r.chunks == 0 {
		r.fingerprint = h.Tag
	}
	r.chunks++
	r.events += int64(h.Count)
}

// Next reads, verifies, and decodes the next chunk into c, reusing c's
// buffers. It returns io.EOF at a clean end of trace.
func (r *ChunkReader) Next(c *Chunk) error {
	h, err := r.header()
	if err != nil {
		return err
	}
	if c.payload, err = r.seg.Payload(c.payload); err != nil {
		return err
	}
	if err := c.decode(int(h.Count)); err != nil {
		return fmt.Errorf("trace: chunk %d: %w", r.chunks, err)
	}
	c.Index = r.chunks
	c.Fingerprint = h.Tag
	r.advance(h)
	return nil
}

// SkipChunk advances past the next chunk without CRC-verifying or
// decoding its payload, for drill-down tooling that wants chunk N
// without paying for chunks 0..N-1. It returns io.EOF at a clean end of
// trace.
func (r *ChunkReader) SkipChunk() error {
	h, err := r.header()
	if err != nil {
		return err
	}
	if err := r.seg.Skip(); err != nil {
		return err
	}
	r.advance(h)
	return nil
}

// Chunks reports the number of chunks decoded so far.
func (r *ChunkReader) Chunks() int { return r.chunks }

// Count reports the number of events decoded so far.
func (r *ChunkReader) Count() int64 { return r.events }

// Fingerprint reports the file's fingerprint; valid after the first
// successful Next.
func (r *ChunkReader) Fingerprint() uint64 { return r.fingerprint }
