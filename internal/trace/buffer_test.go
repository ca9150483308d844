package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"odbgc/internal/heap"
)

// bufferTestEvents covers every kind and the conditional create layouts.
func bufferTestEvents() []Event {
	return []Event{
		{Kind: KindCreate, OID: 1, Size: 120, NFields: 4},
		{Kind: KindRoot, OID: 1},
		{Kind: KindCreate, OID: 2, Size: 90, NFields: 4, Parent: 1, ParentField: 1},
		{Kind: KindCreate, OID: 3, Size: 65536, NFields: 0, Parent: 2, ParentField: 3},
		{Kind: KindRead, OID: 2},
		{Kind: KindModify, OID: 1},
		{Kind: KindWrite, OID: 1, Field: 1, Target: heap.NilOID},
		{Kind: KindWrite, OID: 2, Field: 2, Target: 1},
	}
}

func TestBufferRoundTrip(t *testing.T) {
	var b Buffer
	want := bufferTestEvents()
	for _, e := range want {
		if err := b.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != int64(len(want)) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(want))
	}
	b.Compact()
	if b.SizeBytes() == 0 || b.SizeBytes() > int64(len(want))*32 {
		t.Fatalf("SizeBytes = %d implausible for %d events", b.SizeBytes(), len(want))
	}
	var got collectSink
	if err := b.Replay(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.events, want) {
		t.Fatalf("replay diverged:\n got %+v\nwant %+v", got.events, want)
	}
	// Replays are repeatable.
	var again collectSink
	if err := b.Replay(&again); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.events, want) {
		t.Fatal("second replay diverged")
	}
}

func TestBufferRejectsInvalidEvent(t *testing.T) {
	var b Buffer
	if err := b.Emit(Event{Kind: KindCreate, OID: heap.NilOID, Size: 10}); err == nil {
		t.Fatal("invalid event accepted")
	}
	if b.Len() != 0 {
		t.Fatalf("invalid event recorded: Len = %d", b.Len())
	}
}

func TestBufferMatchesWriterEncoding(t *testing.T) {
	// Every event a Buffer accepts must survive the ChunkWriter's packed
	// payload encoding: its packed form decodes back to itself.
	for _, e := range bufferTestEvents() {
		enc := appendEvent(nil, e)
		got, n, err := decodeEvent(enc)
		if err != nil {
			t.Fatalf("%+v: %v", e, err)
		}
		if n != len(enc) {
			t.Errorf("%+v: consumed %d of %d bytes", e, n, len(enc))
		}
		if !reflect.DeepEqual(got, e) {
			t.Errorf("decode(%+v) = %+v", e, got)
		}
	}
	if _, _, err := decodeEvent([]byte{0xFF}); err == nil {
		t.Error("unknown opcode accepted")
	}
	if _, _, err := decodeEvent(appendEvent(nil, Event{Kind: KindWrite, OID: 7, Field: 1, Target: 9})[:2]); err == nil {
		t.Error("truncated event accepted")
	}
}

// TestBufferRejectsWideOperands checks that an operand above 2^32-1
// fails Emit with an error naming the event and the operand, and leaves
// the buffer unchanged.
func TestBufferRejectsWideOperands(t *testing.T) {
	var b Buffer
	for _, e := range bufferTestEvents() {
		if err := b.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	n, size := b.Len(), b.SizeBytes()
	err := b.Emit(Event{Kind: KindRead, OID: heap.OID(1) << 40})
	if err == nil {
		t.Fatal("Emit accepted a >32-bit OID")
	}
	for _, want := range []string{"event 8", "read", "OID", "1099511627776"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if err := b.Emit(Event{Kind: KindCreate, OID: 9, Size: 1 << 33, NFields: 1}); err == nil || !strings.Contains(err.Error(), "Size") {
		t.Errorf("oversized create: err = %v, want error naming Size", err)
	}
	if b.Len() != n || b.SizeBytes() != size {
		t.Fatalf("rejected events changed the buffer: Len %d -> %d", n, b.Len())
	}
}

// TestBufferSizeBytes bounds a packed buffer by its encoding: every
// event is an opcode and at least one operand byte, and at most five
// operands of at most five bytes each.
func TestBufferSizeBytes(t *testing.T) {
	b := benchBuffer(t, 200)
	if got := b.SizeBytes(); got < 2*b.Len() || got > b.Len()*(1+5*5) {
		t.Fatalf("SizeBytes = %d implausible for %d events", got, b.Len())
	}
}

// Buffer replay is the per-event fast path of every cached-trace
// simulation; a replay step must not allocate. Replay carries the
// //odbgc:hotpath annotation checked by the hotcall analyzer;
// TestHotpathAnnotationsMatchGuards in internal/analysis keeps the
// annotation and this guard in sync via the declaration below.
//
//odbgc:allocguard trace.Buffer.Replay trace.replayPacked
func TestBufferReplayZeroAllocs(t *testing.T) {
	b := benchBuffer(t, 256)
	var sink benchSink
	allocs := testing.AllocsPerRun(50, func() {
		if err := b.Replay(&sink); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("buffer replay: %v allocs per full replay, want 0", allocs)
	}
}

// TestBufferSegmentBoundaries records a trace just past one segment
// and checks that replay crosses the boundary in order.
func TestBufferSegmentBoundaries(t *testing.T) {
	const seed = 3
	n := segmentEvents + 3
	var b Buffer
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if err := b.Emit(randomEvent(rng)); err != nil {
			t.Fatal(err)
		}
	}
	b.Compact()
	if b.Len() != int64(n) || len(b.segs) != 2 {
		t.Fatalf("Len %d in %d segments, want %d in 2", b.Len(), len(b.segs), n)
	}
	rng = rand.New(rand.NewSource(seed))
	var got int
	err := b.Replay(sinkFunc(func(e Event) error {
		if want := randomEvent(rng); e != want {
			return fmt.Errorf("event %d = %+v, want %+v", got, e, want)
		}
		got++
		return nil
	}))
	if err != nil || got != n {
		t.Fatalf("replayed %d of %d events: %v", got, n, err)
	}
}

type sinkFunc func(Event) error

func (f sinkFunc) Emit(e Event) error { return f(e) }
