package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// writeChunked encodes the buffer's events into a chunked byte stream
// with the given payload target (tiny targets force many chunks).
func writeChunked(tb testing.TB, b *Buffer, fingerprint uint64, chunkBytes int) []byte {
	tb.Helper()
	var out bytes.Buffer
	cw := NewChunkWriter(&out, fingerprint, chunkBytes)
	if err := b.Replay(cw); err != nil {
		tb.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		tb.Fatal(err)
	}
	if cw.Count() != b.Len() {
		tb.Fatalf("ChunkWriter.Count = %d, want %d", cw.Count(), b.Len())
	}
	return out.Bytes()
}

// readAllChunks drains a chunked byte stream through a single reused
// Chunk, collecting every replayed event.
func readAllChunks(tb testing.TB, data []byte) ([]Event, *ChunkReader) {
	tb.Helper()
	cr := NewChunkReader(bytes.NewReader(data))
	var c Chunk
	var sink collectSink
	for {
		err := cr.Next(&c)
		if errors.Is(err, io.EOF) {
			return sink.events, cr
		}
		if err != nil {
			tb.Fatal(err)
		}
		if err := c.Replay(&sink); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestChunkRoundTrip(t *testing.T) {
	b := benchBuffer(t, 2000)
	var want collectSink
	if err := b.Replay(&want); err != nil {
		t.Fatal(err)
	}
	// A tiny chunk target forces many chunks; the default produces one.
	for _, chunkBytes := range []int{256, 4 << 10, 0} {
		data := writeChunked(t, b, 0xfeedface, chunkBytes)
		got, cr := readAllChunks(t, data)
		if !reflect.DeepEqual(got, want.events) {
			t.Fatalf("chunkBytes=%d: chunked replay diverged from buffer replay", chunkBytes)
		}
		if cr.Count() != b.Len() {
			t.Errorf("chunkBytes=%d: reader counted %d events, want %d", chunkBytes, cr.Count(), b.Len())
		}
		if cr.Fingerprint() != 0xfeedface {
			t.Errorf("chunkBytes=%d: fingerprint = %#x, want 0xfeedface", chunkBytes, cr.Fingerprint())
		}
		if chunkBytes == 256 && cr.Chunks() < 4 {
			t.Errorf("256-byte chunks produced only %d chunks for %d events", cr.Chunks(), b.Len())
		}
	}
}

func TestChunkEmptyTrace(t *testing.T) {
	var b Buffer
	data := writeChunked(t, &b, 7, 0)
	if len(data) != len(chunkMagic)+chunkHeaderSize {
		t.Fatalf("empty chunked trace is %d bytes, want %d (the magic and the end segment)", len(data), len(chunkMagic)+chunkHeaderSize)
	}
	events, cr := readAllChunks(t, data)
	if len(events) != 0 || cr.Chunks() != 0 {
		t.Fatalf("empty trace decoded %d events in %d chunks", len(events), cr.Chunks())
	}
}

// TestChunkCorruptionNamesChunkIndex flips one payload byte in each
// chunk in turn and checks the reader reports a CRC mismatch naming that
// chunk's index.
func TestChunkCorruptionNamesChunkIndex(t *testing.T) {
	b := benchBuffer(t, 600)
	data := writeChunked(t, b, 1, 512)
	// Each chunk's payload runs from the end of its header to the next
	// chunk (or the end segment).
	offs := chunkOffsets(data)
	if len(offs) < 3 {
		t.Fatalf("want multiple chunks, got %d", len(offs)-1)
	}
	for i := range offs[:len(offs)-1] {
		start := offs[i] + chunkHeaderSize
		corrupt := append([]byte(nil), data...)
		corrupt[start+(offs[i+1]-start)/2] ^= 0x40
		cr := NewChunkReader(bytes.NewReader(corrupt))
		var c Chunk
		var err error
		for err == nil {
			err = cr.Next(&c)
		}
		if errors.Is(err, io.EOF) {
			t.Fatalf("chunk %d: corruption not detected", i)
		}
		if want := "chunk " + strconv.Itoa(i); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "crc") {
			t.Errorf("chunk %d: error %q does not name %q with a crc mismatch", i, err, want)
		}
	}
}

func TestChunkTruncationRejected(t *testing.T) {
	b := benchBuffer(t, 300)
	data := writeChunked(t, b, 1, 1024)
	for _, cut := range []int{len(chunkMagic) - 3, len(chunkMagic) + 10, len(data) / 2, len(data) - 3} {
		cr := NewChunkReader(bytes.NewReader(data[:cut]))
		var c Chunk
		var err error
		for err == nil {
			err = cr.Next(&c)
		}
		if errors.Is(err, io.EOF) {
			t.Errorf("truncation at %d of %d bytes not detected", cut, len(data))
		}
	}
	// Another version of the magic: a version-1 file, which has no end
	// segment, fails by name at the magic.
	cr := NewChunkReader(bytes.NewReader([]byte("odbgcck\x01junk")))
	if err := cr.Next(new(Chunk)); !errors.Is(err, ErrBadChunkMagic) {
		t.Errorf("foreign magic accepted by chunk reader: %v", err)
	}
}

// TestChunkVersion2Rejected checks that a file of the previous format,
// version 2 (an opcode byte and absolute operands per event), fails
// OpenChunkStream at the magic, naming the path, rather than replaying
// its payloads under the delta code.
func TestChunkVersion2Rejected(t *testing.T) {
	data := writeChunked(t, benchBuffer(t, 100), 1, 0)
	if data[len(chunkMagic)-1] != 3 {
		t.Fatalf("magic %q: want version 3", data[:len(chunkMagic)])
	}
	data[len(chunkMagic)-1] = 2
	path := filepath.Join(t.TempDir(), "v2.odbgcck")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenChunkStream(path); !errors.Is(err, ErrBadChunkMagic) || !strings.Contains(err.Error(), path) {
		t.Fatalf("OpenChunkStream of a version-2 file: err = %v, want ErrBadChunkMagic naming %s", err, path)
	}
}

func TestChunkReaderSkip(t *testing.T) {
	b := benchBuffer(t, 1200)
	data := writeChunked(t, b, 9, 512)
	full, fullReader := readAllChunks(t, data)
	total := fullReader.Chunks()
	if total < 3 {
		t.Fatalf("want >= 3 chunks, got %d", total)
	}
	// Skip to the last chunk and replay only it.
	cr := NewChunkReader(bytes.NewReader(data))
	for i := 0; i < total-1; i++ {
		if err := cr.SkipChunk(); err != nil {
			t.Fatalf("skip %d: %v", i, err)
		}
	}
	var c Chunk
	if err := cr.Next(&c); err != nil {
		t.Fatal(err)
	}
	if c.Index != total-1 {
		t.Fatalf("Index = %d, want %d", c.Index, total-1)
	}
	var sink collectSink
	if err := c.Replay(&sink); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sink.events, full[len(full)-c.Len():]) {
		t.Fatal("skipped-to chunk replayed different events than full read")
	}
	if err := cr.Next(&c); !errors.Is(err, io.EOF) {
		t.Fatalf("after last chunk: %v, want EOF", err)
	}
}

// TestChunkRejectsWideOperands checks both ends of the 32-bit operand
// bound: ChunkWriter.Emit refuses a >32-bit OID naming the event and the
// operand, and a hand-built payload holding one fails decode naming the
// chunk.
func TestChunkRejectsWideOperands(t *testing.T) {
	wide := Event{Kind: KindRead, OID: 1 << 40}
	cw := NewChunkWriter(io.Discard, 3, 0)
	for _, e := range bufferTestEvents() {
		if err := cw.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	err := cw.Emit(wide)
	if err == nil {
		t.Fatal("ChunkWriter.Emit accepted a >32-bit OID")
	}
	for _, want := range []string{"event 8", "OID", "1099511627776"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Emit error %q does not name %q", err, want)
		}
	}
	if cw.Count() != int64(len(bufferTestEvents())) {
		t.Fatalf("rejected event counted: Count = %d", cw.Count())
	}

	// The wide read's head: its OID's delta from the last event's, 2.
	payload := encodeEvents(t, bufferTestEvents()...)
	payload = binary.AppendUvarint(payload, zigzag(int64(wide.OID)-2)<<kindBits|uint64(KindRead))
	cr := NewChunkReader(bytes.NewReader(hdrChunk(len(bufferTestEvents())+1, payload)))
	err = cr.Next(new(Chunk))
	if err == nil {
		t.Fatal("chunk holding a >32-bit OID decoded")
	}
	for _, want := range []string{"chunk 0", "event 8", "OID", "1099511627776"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("decode error %q does not name %q", err, want)
		}
	}
}

// TestWriterPropagatesHeaderError checks that a failed magic write
// surfaces from Flush of an empty trace.
func TestWriterPropagatesHeaderError(t *testing.T) {
	w := NewChunkWriter(&failWriter{left: 0}, 0, 0)
	if err := w.Flush(); !errors.Is(err, errFailWriter) {
		t.Fatalf("header write error swallowed: %v", err)
	}
}

// TestWriterPropagatesFlushError checks that a failed write of the final
// short chunk surfaces from Flush.
func TestWriterPropagatesFlushError(t *testing.T) {
	w := NewChunkWriter(&failWriter{left: len(chunkMagic)}, 0, 0)
	for i := 0; i < 10; i++ {
		if err := w.Emit(Event{Kind: KindRead, OID: 1}); err != nil {
			t.Fatal(err) // the open chunk is far below its flush target
		}
	}
	if err := w.Flush(); !errors.Is(err, errFailWriter) {
		t.Fatalf("flush error swallowed: %v", err)
	}
}

// TestWriterErrorIsSticky checks that after a chunk write fails, every
// later Emit and Flush returns that error: the failed chunk stays open
// at its flush target, so appending to it again must not be tried.
func TestWriterErrorIsSticky(t *testing.T) {
	w := NewChunkWriter(&failWriter{left: len(chunkMagic)}, 0, 16)
	var err error
	for i := 0; err == nil; i++ {
		if i == 100 {
			t.Fatal("no chunk write was attempted")
		}
		err = w.Emit(Event{Kind: KindRead, OID: 1})
	}
	if !errors.Is(err, errFailWriter) {
		t.Fatalf("chunk write error swallowed: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Emit(Event{Kind: KindRead, OID: 1}); !errors.Is(err, errFailWriter) {
			t.Fatalf("Emit %d after the failed write = %v, want %v", i, err, errFailWriter)
		}
	}
	if err := w.Flush(); !errors.Is(err, errFailWriter) {
		t.Fatalf("Flush after the failed write = %v, want %v", err, errFailWriter)
	}
}

func TestChunkStreamReplay(t *testing.T) {
	b := benchBuffer(t, 3000)
	var want collectSink
	if err := b.Replay(&want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stream.odbgc")
	if err := os.WriteFile(path, writeChunked(t, b, 42, 1024), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenChunkStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != b.Len() {
		t.Fatalf("stream Len = %d, want %d", s.Len(), b.Len())
	}
	if s.Fingerprint() != 42 {
		t.Fatalf("stream fingerprint = %d, want 42", s.Fingerprint())
	}
	if s.Chunks() < 3 {
		t.Fatalf("stream has %d chunks, want several", s.Chunks())
	}
	if s.ResidentBytes() <= 0 || s.ResidentBytes() > 2*(1024+maxEventBytes) {
		t.Fatalf("ResidentBytes = %d implausible for 1 KB chunks", s.ResidentBytes())
	}
	var got collectSink
	if err := s.Replay(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Fatal("streamed replay diverged from buffer replay")
	}
	// Replays are repeatable (fresh file descriptor per replay).
	var again collectSink
	if err := s.Replay(&again); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.events, want.events) {
		t.Fatal("second streamed replay diverged")
	}
}

// errSink fails on the Nth emit, exercising early-exit of the prefetch
// pipeline.
type errSink struct{ n, failAt int }

var errSinkBoom = errors.New("sink boom")

func (s *errSink) Emit(Event) error {
	s.n++
	if s.n >= s.failAt {
		return errSinkBoom
	}
	return nil
}

func TestChunkStreamSinkErrorStopsPipeline(t *testing.T) {
	b := benchBuffer(t, 2000)
	path := filepath.Join(t.TempDir(), "err.odbgc")
	if err := os.WriteFile(path, writeChunked(t, b, 0, 512), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenChunkStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Replay(&errSink{failAt: 700}); !errors.Is(err, errSinkBoom) {
		t.Fatalf("err = %v, want sink error", err)
	}
}

func TestAsyncWriter(t *testing.T) {
	var out bytes.Buffer
	aw := NewAsyncWriter(&out)
	var want bytes.Buffer
	buf := make([]byte, 300)
	for i := 0; i < 50; i++ {
		for j := range buf {
			buf[j] = byte(i)
		}
		want.Write(buf)
		if _, err := aw.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatal("async writes arrived out of order or corrupted")
	}
}

// failWriter fails after n bytes.
type failWriter struct{ left int }

var errFailWriter = errors.New("disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	w.left -= len(p)
	if w.left < 0 {
		return 0, errFailWriter
	}
	return len(p), nil
}

func TestAsyncWriterPropagatesError(t *testing.T) {
	aw := NewAsyncWriter(&failWriter{left: 100})
	var sawErr bool
	for i := 0; i < 50; i++ {
		if _, err := aw.Write(make([]byte, 64)); err != nil {
			sawErr = true
			break
		}
	}
	if err := aw.Close(); err == nil && !sawErr {
		t.Fatal("write error never surfaced")
	}
}

// Chunk replay is the per-event fast path of streamed simulation; a
// replay step must not allocate, and emitting into a chunk writer must
// not allocate in steady state. Replay and Emit carry the
// //odbgc:hotpath annotation checked by the hotcall analyzer;
// TestHotpathAnnotationsMatchGuards in internal/analysis keeps the
// annotations and these guards in sync via the declaration below.
//
//odbgc:allocguard trace.Chunk.Replay trace.ChunkWriter.Emit
func TestChunkReplayZeroAllocs(t *testing.T) {
	b := benchBuffer(t, 512)
	data := writeChunked(t, b, 0, 0)
	cr := NewChunkReader(bytes.NewReader(data))
	var c Chunk
	if err := cr.Next(&c); err != nil {
		t.Fatal(err)
	}
	var sink benchSink
	allocs := testing.AllocsPerRun(50, func() {
		if err := c.Replay(&sink); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("chunk replay: %v allocs per full replay, want 0", allocs)
	}

	// Writer steady state: the payload buffer and header are reused, so
	// emitting a full chunk cycle (including the flush) allocates
	// nothing once AllocsPerRun's warm-up call has built the CRC table.
	events := bufferTestEvents()
	cw := NewChunkWriter(io.Discard, 1, 1024)
	allocs = testing.AllocsPerRun(50, func() {
		for i := 0; i < 40; i++ {
			for _, e := range events {
				if err := cw.Emit(e); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("chunk writer emit: %v allocs per 40 chunk cycles, want 0", allocs)
	}
}

// BenchmarkChunkReplay measures one replay step of a checked chunk —
// the streamed counterpart of BenchmarkBufferReplay.
func BenchmarkChunkReplay(b *testing.B) {
	const events = 4096
	data := writeChunked(b, benchBuffer(b, events), 0, 0)
	cr := NewChunkReader(bytes.NewReader(data))
	var c Chunk
	if err := cr.Next(&c); err != nil {
		b.Fatal(err)
	}
	var sink benchSink
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += events {
		if err := c.Replay(&sink); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChunkStreamReplay measures the full streamed pipeline per
// event: file read, CRC and structural walk on the prefetch goroutine,
// and the zero-alloc drain.
func BenchmarkChunkStreamReplay(b *testing.B) {
	const events = 1 << 16
	path := filepath.Join(b.TempDir(), "bench.odbgc")
	if err := os.WriteFile(path, writeChunked(b, benchBuffer(b, events), 0, 64<<10), 0o644); err != nil {
		b.Fatal(err)
	}
	s, err := OpenChunkStream(path)
	if err != nil {
		b.Fatal(err)
	}
	var sink benchSink
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += events {
		if err := s.Replay(&sink); err != nil {
			b.Fatal(err)
		}
	}
}
