package trace

import (
	"errors"
	"fmt"
	"io"

	"odbgc/internal/heap"
	"odbgc/internal/segfile"
)

// Chunked trace format: the on-disk form for traces too large to hold in
// memory. The file is an internal/segfile container: the chunk magic
// followed by any number of self-describing chunks, each a segment whose
// count is the chunk's event count and whose tag is the generating
// configuration's fingerprint, and then segfile's end segment, so a file
// cut at a chunk boundary fails by name instead of replaying as a
// complete, shorter trace. A payload is the packed delta encoding a
// Buffer segment holds in memory (codec.go), its delta base starting
// at 0, so each chunk decodes on its own. A reader checks each
// payload's CRC and walks its structure once, and streamed replay then
// decodes it through the same zero-alloc loop as an in-memory replay,
// while only ever holding a bounded number of chunks.

// chunkMagic identifies chunked odbgc trace files; the trailing byte is
// the format version (3: delta-coded payloads; 2 had an opcode byte and
// absolute operands, and 1 no end segment).
var chunkMagic = [8]byte{'o', 'd', 'b', 'g', 'c', 'c', 'k', 3}

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

	// maxEventBytes bounds one packed event with room to spare (at most
	// 26 bytes: a 6-byte head and four 5-byte operands). Both writers
	// keep this much room past their payload target, so appending an
	// event never reallocates.
	maxEventBytes = 64
)

// ChunkWriter encodes events into fixed-size chunks on an underlying
// stream. It implements Sink, so a workload generator can stream an
// arbitrarily long trace through it at constant memory. Call Flush once
// after the last event to write the final short chunk and end the file;
// a reader rejects events emitted after it. Like Buffer.Emit,
// Emit rejects an operand above 2^32-1 by name, so every file it writes
// passes the reader's 32-bit operand bound. A write error on the
// underlying stream is sticky: every later Emit and Flush returns it.
type ChunkWriter struct {
	seg         *segfile.Writer
	fingerprint uint64
	target      int
	payload     []byte
	prev        heap.OID // the open chunk's delta base: its last event's OID
	events      int64    // events in the open chunk
	total       int64
	err         error // the first write error, returned from then on
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

// Emit validates and appends one event to the open chunk, flushing a
// finished chunk to the underlying stream when the payload target is
// reached. The payload buffer is allocated once, with room for the
// target plus one maximal event, and reused for every chunk, so
// emitting allocates nothing (pinned by the chunk-writer AllocsPerRun
// guard).
//
//odbgc:hotpath
func (w *ChunkWriter) Emit(e Event) error {
	if w.err != nil {
		return w.err
	}
	payload, err := appendEvent(w.payload, w.prev, e, w.total)
	if err != nil {
		return err
	}
	w.payload, w.prev = payload, e.OID
	w.events++
	w.total++
	if len(w.payload) >= w.target {
		return w.flushChunk()
	}
	return nil
}

// flushChunk writes the open chunk and resets the payload buffer for
// the next chunk. A failed write leaves the chunk open and becomes the
// writer's sticky error.
func (w *ChunkWriter) flushChunk() error {
	if err := w.seg.Write(uint32(w.events), w.fingerprint, w.payload); err != nil {
		w.err = err
		return err
	}
	w.events = 0
	w.payload = w.payload[:0]
	w.prev = heap.NilOID
	return nil
}

// Flush writes the final short chunk and the end segment (after the
// magic, for an empty trace). The underlying stream is not flushed or
// closed; callers owning a bufio.Writer or file still flush/close it
// themselves.
func (w *ChunkWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.events > 0 {
		if err := w.flushChunk(); err != nil {
			return err
		}
	}
	return w.seg.End()
}

// Count reports the number of events emitted so far.
func (w *ChunkWriter) Count() int64 { return w.total }

// Chunk is one chunk read from a file: its packed payload, checked by
// ChunkReader.Next. A Chunk is reused across Next calls — its payload
// buffer is recycled, so steady-state streaming performs no per-chunk
// allocation once the buffer has grown to the chunk size.
type Chunk struct {
	// Index is the chunk's position in the file, counted from 0.
	Index int
	// Fingerprint is the generating configuration's fingerprint stamped
	// in the chunk header.
	Fingerprint uint64

	payload []byte
	events  int
}

// Len reports the number of events in the chunk.
func (c *Chunk) Len() int { return c.events }

// PayloadBytes reports the packed payload size of the chunk.
func (c *Chunk) PayloadBytes() int { return len(c.payload) }

// Replay streams the chunk's events into sink in recording order,
// through the zero-alloc packed replay loop (pinned by the chunk-replay
// AllocsPerRun guard).
//
//odbgc:hotpath
func (c *Chunk) Replay(sink Sink) error { return replayPacked(c.payload, sink) }

// ChunkReader reads chunks from a stream produced by ChunkWriter. It
// reads strictly sequentially and verifies, per chunk: the CRC of the
// payload, the chunk index (catching missing or reordered chunks),
// fingerprint consistency across the file, and the payload's structure.
// Every error names the chunk index it was detected in.
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
// differs from chunk 0's. It returns io.EOF after the end segment.
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

// Next reads the next chunk into c, reusing c's payload buffer, and
// checks it: the payload's CRC, then one walk of its structure (event
// kinds, varint ends, the 32-bit range of every reconstructed OID and
// every operand, and the header's event count), so c.Replay reads only
// checked bytes. On error c holds no events. It returns io.EOF after
// the end segment, and fails naming the missing end segment at a bare
// end of file.
func (r *ChunkReader) Next(c *Chunk) error {
	c.payload, c.events = c.payload[:0], 0
	h, err := r.header()
	if err != nil {
		return err
	}
	payload, err := r.seg.Payload(c.payload)
	if err != nil {
		return err
	}
	n, err := walkPayload(payload)
	if err == nil && n != int(h.Count) {
		err = fmt.Errorf("header declares %d events, payload holds %d", h.Count, n)
	}
	if err != nil {
		return fmt.Errorf("trace: chunk %d: %w", r.chunks, err)
	}
	c.payload, c.events = payload, n
	c.Index = r.chunks
	c.Fingerprint = h.Tag
	r.advance(h)
	return nil
}

// SkipChunk advances past the next chunk without CRC-verifying or
// walking its payload, for drill-down tooling that wants chunk N
// without paying for chunks 0..N-1. It returns io.EOF after the end
// segment.
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

// Chunks reports the number of chunks read or skipped so far.
func (r *ChunkReader) Chunks() int { return r.chunks }

// Count reports the number of events in the chunks read or skipped so
// far.
func (r *ChunkReader) Count() int64 { return r.events }

// Fingerprint reports the file's fingerprint; valid after the first
// successful Next.
func (r *ChunkReader) Fingerprint() uint64 { return r.fingerprint }
