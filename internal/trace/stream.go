package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// ChunkStream is a replayable handle on a chunked trace file. Opening
// one scans only the chunk headers (seeking over payloads), so the
// handle knows the trace's totals without reading the data; each Replay
// then streams the file through a double-buffered prefetch pipeline — a
// background goroutine reads chunk N+1 and checks its CRC and structure
// while the caller's sink drains chunk N through the zero-alloc packed
// replay loop. Memory is bounded by two chunk payloads regardless of
// trace size.
//
// A ChunkStream holds no open file descriptor; each Replay opens its
// own, so one handle may be replayed from any number of goroutines
// concurrently (the paper's one-trace-many-policies discipline).
type ChunkStream struct {
	path        string
	sizeBytes   int64
	events      int64
	chunks      int
	fingerprint uint64
	maxPayload  int
}

// OpenChunkStream opens path as a chunked trace, validating the magic,
// every chunk header (index order, payload bounds, fingerprint
// consistency, no truncation) and the end segment, so a file cut at a
// chunk boundary fails here. Payload CRCs are verified during replay,
// when the data is read anyway. Errors name the path; a file that is not
// a chunked trace fails with ErrBadChunkMagic.
func OpenChunkStream(path string) (*ChunkStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	s := &ChunkStream{path: path, sizeBytes: st.Size()}
	if err := s.scan(f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// scan checks the magic and walks every chunk header of f, seeking over
// the payloads, to fill in the stream's totals.
func (s *ChunkStream) scan(f *os.File) error {
	cr := NewChunkReader(f)
	for {
		h, err := cr.header()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if err := cr.seg.Skip(); err != nil { // seeks: f is an io.Seeker
			return err
		}
		cr.advance(h)
		s.maxPayload = max(s.maxPayload, int(h.Len))
	}
	s.chunks, s.events, s.fingerprint = cr.chunks, cr.events, cr.fingerprint
	return nil
}

// Path reports the file the stream replays from.
func (s *ChunkStream) Path() string { return s.path }

// Len reports the total number of events in the trace.
func (s *ChunkStream) Len() int64 { return s.events }

// Chunks reports the number of chunks in the trace.
func (s *ChunkStream) Chunks() int { return s.chunks }

// Fingerprint reports the generating configuration's fingerprint stamped
// in the chunk headers (0 for an empty trace).
func (s *ChunkStream) Fingerprint() uint64 { return s.fingerprint }

// SizeBytes reports the on-disk size of the trace file.
func (s *ChunkStream) SizeBytes() int64 { return s.sizeBytes }

// ResidentBytes estimates the peak memory one replay of the stream
// holds: two pipeline slots of the largest payload each, since a chunk
// is replayed from its payload with nothing decoded beside it. This —
// not the trace size — is what trace caches charge against their budget
// for a streamed trace.
func (s *ChunkStream) ResidentBytes() int64 { return 2 * int64(s.maxPayload) }

// Replay streams every event in the file into sink in recording order.
// Reading, CRC verification, and the structural walk of the next chunk
// proceed on a prefetch goroutine while the current chunk drains.
func (s *ChunkStream) Replay(sink Sink) error {
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	defer f.Close()
	cr := NewChunkReader(bufio.NewReaderSize(f, 1<<20))

	// Two chunk slots rotate between the prefetcher and the drain loop.
	decoded := make(chan *Chunk)
	free := make(chan *Chunk, 2)
	free <- new(Chunk)
	free <- new(Chunk)
	stop := make(chan struct{})
	readErr := make(chan error, 1)
	go func() {
		defer close(decoded)
		for {
			var c *Chunk
			select {
			case c = <-free:
			case <-stop:
				return
			}
			if err := cr.Next(c); err != nil {
				if !errors.Is(err, io.EOF) {
					readErr <- err
				}
				return
			}
			select {
			case decoded <- c:
			case <-stop:
				return
			}
		}
	}()

	var delivered int64
	var sinkErr error
	for c := range decoded {
		if err := c.Replay(sink); err != nil {
			sinkErr = err
			break
		}
		delivered += int64(c.Len())
		free <- c // cap 2 and only two slots exist: never blocks
	}
	close(stop)
	if sinkErr != nil {
		return sinkErr
	}
	select {
	case err := <-readErr:
		return err
	default:
	}
	if delivered != s.events {
		return fmt.Errorf("trace: %s: replay delivered %d events, header scan counted %d (file changed since open?)", s.path, delivered, s.events)
	}
	return nil
}

// AsyncWriter pipelines writes to an underlying stream through a
// background goroutine: Write copies p into a recycled buffer and
// returns as soon as the copy is queued, so a producer (trace
// generation, chunk encoding) overlaps with file I/O. Memory is bounded
// by the buffer pool. Close waits for all queued writes and reports the
// first write error; Write reports a prior asynchronous error on a later
// call.
type AsyncWriter struct {
	queue chan []byte
	pool  chan []byte
	done  chan struct{}
	err   error // written by the worker before done closes
}

// asyncWriterDepth is the number of recycled buffers an AsyncWriter
// circulates: one being written while the producer fills the other.
const asyncWriterDepth = 2

// NewAsyncWriter returns an AsyncWriter over w.
func NewAsyncWriter(w io.Writer) *AsyncWriter {
	a := &AsyncWriter{
		queue: make(chan []byte, asyncWriterDepth),
		pool:  make(chan []byte, asyncWriterDepth),
		done:  make(chan struct{}),
	}
	for i := 0; i < asyncWriterDepth; i++ {
		a.pool <- nil
	}
	go func() {
		defer close(a.done)
		for buf := range a.queue {
			if a.err == nil {
				if _, err := w.Write(buf); err != nil {
					a.err = err
				}
			}
			a.pool <- buf
		}
	}()
	return a
}

// Write implements io.Writer. The data is copied before Write returns,
// so the caller may immediately reuse p.
func (a *AsyncWriter) Write(p []byte) (int, error) {
	select {
	case <-a.done:
		return 0, fmt.Errorf("trace: write after Close of AsyncWriter")
	default:
	}
	buf := <-a.pool
	buf = append(buf[:0], p...)
	a.queue <- buf
	return len(p), nil
}

// Close drains the queue, stops the worker, and returns the first error
// any asynchronous write hit. It does not close the underlying stream.
func (a *AsyncWriter) Close() error {
	close(a.queue)
	<-a.done
	return a.err
}
