package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"odbgc/internal/heap"
)

func sampleEvents() []Event {
	return []Event{
		{Kind: KindCreate, OID: 1, Size: 100, NFields: 4},
		{Kind: KindRoot, OID: 1},
		{Kind: KindCreate, OID: 2, Size: 65536, NFields: 0, Parent: 1, ParentField: 3},
		{Kind: KindRead, OID: 2},
		{Kind: KindWrite, OID: 1, Field: 0, Target: 2},
		{Kind: KindWrite, OID: 1, Field: 0, Target: heap.NilOID},
		{Kind: KindModify, OID: 2},
	}
}

// hdrChunk builds a chunked stream holding one chunk whose payload is
// given verbatim, with a header (event count, length, CRC) that matches
// it, so decode errors are reached past the CRC check.
func hdrChunk(events int, payload []byte) []byte {
	out := append([]byte{}, chunkMagic[:]...)
	var hdr [chunkHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(events))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(payload))
	out = append(out, hdr[:]...)
	return append(out, payload...)
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewChunkWriter(&buf, 1, 0)
	events := sampleEvents()
	for _, e := range events {
		if err := w.Emit(e); err != nil {
			t.Fatalf("Emit(%+v): %v", e, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(events)) {
		t.Fatalf("writer Count = %d, want %d", w.Count(), len(events))
	}
	got, r := readAllChunks(t, buf.Bytes())
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, events)
	}
	if r.Count() != int64(len(events)) {
		t.Fatalf("reader Count = %d, want %d", r.Count(), len(events))
	}
}

func TestEmptyTrace(t *testing.T) {
	var b Buffer
	if b.Len() != 0 || b.SizeBytes() != 0 {
		t.Fatalf("empty buffer: Len %d, SizeBytes %d", b.Len(), b.SizeBytes())
	}
	var sink collectSink
	if err := b.Replay(&sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.events) != 0 {
		t.Fatalf("empty buffer replayed %d events", len(sink.events))
	}
}

// TestBadMagic checks that a file which is not a chunked trace fails
// with ErrBadChunkMagic, from the reader and from OpenChunkStream, whose
// error also names the path.
func TestBadMagic(t *testing.T) {
	r := NewChunkReader(bytes.NewReader([]byte("not a trace file")))
	if err := r.Next(new(Chunk)); !errors.Is(err, ErrBadChunkMagic) {
		t.Fatalf("err = %v, want ErrBadChunkMagic", err)
	}
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := os.WriteFile(path, []byte(`{"k":"read","oid":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenChunkStream(path)
	if !errors.Is(err, ErrBadChunkMagic) || !strings.Contains(err.Error(), path) {
		t.Fatalf("OpenChunkStream: err = %v, want ErrBadChunkMagic naming %s", err, path)
	}
}

func TestTruncatedHeader(t *testing.T) {
	r := NewChunkReader(bytes.NewReader([]byte("odb")))
	if err := r.Next(new(Chunk)); !errors.Is(err, ErrBadChunkMagic) {
		t.Fatalf("err = %v, want ErrBadChunkMagic", err)
	}
}

// TestTruncatedEvent checks that a payload whose last event is cut short
// fails decode even when the CRC matches, naming the chunk.
func TestTruncatedEvent(t *testing.T) {
	enc := encodeEvents(t, Event{Kind: KindCreate, OID: 300, Size: 100, NFields: 2})
	r := NewChunkReader(bytes.NewReader(hdrChunk(1, enc[:len(enc)-1])))
	err := r.Next(new(Chunk))
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "chunk 0") {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF naming chunk 0", err)
	}
}

// TestUnknownOpcode checks that an event whose head carries a kind
// outside 1-5 in its low three bits fails decode naming the kind, even
// after a valid event and with a small OID delta above the kind.
func TestUnknownOpcode(t *testing.T) {
	for _, kind := range []byte{0, 6, 7} {
		payload := append(encodeEvents(t, Event{Kind: KindRead, OID: 4}), 2<<kindBits|kind)
		r := NewChunkReader(bytes.NewReader(hdrChunk(2, payload)))
		want := fmt.Sprintf("event 1: unknown event kind %d", kind)
		if err := r.Next(new(Chunk)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want an error containing %q", err, want)
		}
	}
}

func TestEmitRejectsInvalidEvents(t *testing.T) {
	bad := []Event{
		{Kind: KindCreate, OID: 0, Size: 100},
		{Kind: KindCreate, OID: 1, Size: 0},
		{Kind: KindCreate, OID: 1, Size: -5},
		{Kind: KindCreate, OID: 1, Size: 10, NFields: -1},
		{Kind: KindRead, OID: 0},
		{Kind: KindRoot, OID: 0},
		{Kind: KindModify, OID: 0},
		{Kind: KindWrite, OID: 0},
		{Kind: KindWrite, OID: 1, Field: -1},
		{Kind: Kind(0), OID: 1},
		{Kind: Kind(42), OID: 1},
	}
	var b Buffer
	w := NewChunkWriter(io.Discard, 0, 0)
	for _, e := range bad {
		if err := b.Emit(e); err == nil {
			t.Errorf("Buffer.Emit(%+v): want error", e)
		}
		if err := w.Emit(e); err == nil {
			t.Errorf("ChunkWriter.Emit(%+v): want error", e)
		}
	}
	if b.Len() != 0 || w.Count() != 0 {
		t.Fatalf("invalid events recorded: buffer %d, writer %d", b.Len(), w.Count())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindCreate: "create",
		KindRoot:   "root",
		KindRead:   "read",
		KindWrite:  "write",
		KindModify: "modify",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if Kind(77).String() != "Kind(77)" {
		t.Error("unknown kind should format numerically")
	}
}

type collectSink struct{ events []Event }

func (c *collectSink) Emit(e Event) error {
	c.events = append(c.events, e)
	return nil
}

// randomEvent builds a valid random event.
func randomEvent(rng *rand.Rand) Event {
	switch Kind(rng.Intn(5) + 1) {
	case KindCreate:
		e := Event{
			Kind:    KindCreate,
			OID:     heap.OID(rng.Uint64()%1e9 + 1),
			Size:    int64(rng.Intn(1<<20)) + 1,
			NFields: rng.Intn(16),
		}
		if rng.Intn(2) == 0 {
			e.Parent = heap.OID(rng.Uint64()%1e9 + 1)
			e.ParentField = rng.Intn(16)
		}
		return e
	case KindRoot:
		return Event{Kind: KindRoot, OID: heap.OID(rng.Uint64()%1e9 + 1)}
	case KindRead:
		return Event{Kind: KindRead, OID: heap.OID(rng.Uint64()%1e9 + 1)}
	case KindModify:
		return Event{Kind: KindModify, OID: heap.OID(rng.Uint64()%1e9 + 1)}
	default:
		return Event{
			Kind:   KindWrite,
			OID:    heap.OID(rng.Uint64()%1e9 + 1),
			Field:  rng.Intn(16),
			Target: heap.OID(rng.Uint64() % 1e9), // may be nil
		}
	}
}

// TestRoundTripProperty checks encode/decode identity on random event
// sequences through small chunks, and that a Buffer fed the same events
// replays them identically.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		events := make([]Event, int(n)+1)
		var b Buffer
		var buf bytes.Buffer
		w := NewChunkWriter(&buf, uint64(seed), 64)
		for i := range events {
			events[i] = randomEvent(rng)
			if err := w.Emit(events[i]); err != nil {
				t.Fatalf("ChunkWriter.Emit: %v", err)
			}
			if err := b.Emit(events[i]); err != nil {
				t.Fatalf("Buffer.Emit: %v", err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		got, _ := readAllChunks(t, buf.Bytes())
		var fromBuf collectSink
		if err := b.Replay(&fromBuf); err != nil {
			t.Fatal(err)
		}
		return reflect.DeepEqual(got, events) && reflect.DeepEqual(fromBuf.events, events)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
