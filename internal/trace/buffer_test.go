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
	// payload encoding: its packed form, delta-coded from the event
	// before it, decodes back to itself.
	events := bufferTestEvents()
	enc := encodeEvents(t, events...)
	prev := heap.NilOID
	for pos, i := 0, 0; i < len(events); i++ {
		got, n, err := decodeEvent(enc[pos:], prev)
		if err != nil {
			t.Fatalf("%+v: %v", events[i], err)
		}
		if !reflect.DeepEqual(got, events[i]) {
			t.Errorf("decode(%+v) = %+v", events[i], got)
		}
		pos += n
		prev = got.OID
		if i == len(events)-1 && pos != len(enc) {
			t.Errorf("decoded %d of %d bytes", pos, len(enc))
		}
	}
	if _, _, err := decodeEvent([]byte{0xFF}, heap.NilOID); err == nil {
		t.Error("unterminated head accepted")
	}
	if _, _, err := decodeEvent(encodeEvents(t, Event{Kind: KindWrite, OID: 7, Field: 1, Target: 9})[:2], heap.NilOID); err == nil {
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

// TestBufferSizeBytes bounds a compacted packed buffer by its
// encoding: every event takes at least its one-byte head (all a read of
// the previous event's OID needs), and at most 26 bytes.
func TestBufferSizeBytes(t *testing.T) {
	b := benchBuffer(t, 200)
	if got := b.SizeBytes(); got < b.Len() || got > b.Len()*(1+5*5) {
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
// and checks that replay crosses the boundary in order, the second
// segment's deltas starting again from 0, and that Compact trims only
// the open segment.
func TestBufferSegmentBoundaries(t *testing.T) {
	const seed = 3
	var b Buffer
	rng := rand.New(rand.NewSource(seed))
	for extra := 3; extra > 0; {
		if err := b.Emit(randomEvent(rng)); err != nil {
			t.Fatal(err)
		}
		if len(b.segs) == 2 {
			extra--
		}
	}
	b.Compact()
	if len(b.segs) != 2 || cap(b.segs[0]) != segmentBytes || cap(b.segs[0])-len(b.segs[0]) >= maxEventBytes || cap(b.segs[1]) != len(b.segs[1]) {
		t.Fatalf("segments of %d and %d bytes (capacity %d and %d), want a full first segment and a trimmed second",
			len(b.segs[0]), len(b.segs[1]), cap(b.segs[0]), cap(b.segs[1]))
	}
	n := int(b.Len())
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

// TestBufferCompactEmptyAndReopen checks Compact's edge cases: an empty
// buffer stays empty, an open segment holding no event (its first event
// was refused) is released, and an Emit after Compact starts a new
// segment rather than writing past the trimmed one.
func TestBufferCompactEmptyAndReopen(t *testing.T) {
	var b Buffer
	b.Compact()
	if err := b.Emit(Event{Kind: KindRead}); err == nil {
		t.Fatal("read of the nil OID accepted")
	}
	b.Compact()
	if b.SizeBytes() != 0 || b.Len() != 0 {
		t.Fatalf("refused event left %d events in %d bytes", b.Len(), b.SizeBytes())
	}
	want := bufferTestEvents()
	for i, e := range want {
		if err := b.Emit(e); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			b.Compact()
		}
	}
	var got collectSink
	if err := b.Replay(&got); err != nil || !reflect.DeepEqual(got.events, want) || len(b.segs) != 3 {
		t.Fatalf("replay across a compacted segment (%d segments, err %v):\n got %+v\nwant %+v", len(b.segs), err, got.events, want)
	}
}

type sinkFunc func(Event) error

func (f sinkFunc) Emit(e Event) error { return f(e) }
