package trace_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"odbgc/internal/heap"
	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

// The readers replay plainly; the warm-start hook, which runs once at
// the build/churn boundary, lives in workload.RecordedTrace.Replay.
// These tests check its position over each reader: a Buffer as
// recorded, a Buffer compacted as trace caches hold it, and a
// ChunkStream whose chunk boundaries fall between the positions.

var hookTestEvents = []trace.Event{
	{Kind: trace.KindCreate, OID: 1, Size: 120, NFields: 4},
	{Kind: trace.KindRoot, OID: 1},
	{Kind: trace.KindCreate, OID: 2, Size: 90, NFields: 4, Parent: 1, ParentField: 1},
	{Kind: trace.KindCreate, OID: 3, Size: 65536, NFields: 0, Parent: 2, ParentField: 3},
	{Kind: trace.KindRead, OID: 2},
	{Kind: trace.KindModify, OID: 1},
	{Kind: trace.KindWrite, OID: 1, Field: 1, Target: heap.NilOID},
	{Kind: trace.KindWrite, OID: 2, Field: 2, Target: 1},
}

type eventList []trace.Event

func (l *eventList) Emit(e trace.Event) error {
	*l = append(*l, e)
	return nil
}

// bufferTrace records events into an in-memory trace.
func bufferTrace(t *testing.T, events []trace.Event) *workload.RecordedTrace {
	t.Helper()
	rt := &workload.RecordedTrace{Buffer: &trace.Buffer{}}
	for _, e := range events {
		if err := rt.Buffer.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	return rt
}

// streamedTrace writes events to a chunked file of 8-byte chunks, one
// or two events each, and opens it as a streamed trace.
func streamedTrace(t *testing.T, events []trace.Event) *workload.RecordedTrace {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hook.odbgcck")
	if err := bufferTrace(t, events).WriteChunked(path, 8); err != nil {
		t.Fatal(err)
	}
	rt, err := workload.OpenStreamed(path)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// checkHook replays rt with its boundary at build and checks that the
// hook ran once, after exactly want events (never, for want -1), and
// that the replay delivered the whole of events.
func checkHook(t *testing.T, rt *workload.RecordedTrace, events []trace.Event, build, want int64) {
	t.Helper()
	rt.BuildEvents = build
	var sink eventList
	runs, at := 0, int64(-1)
	if err := rt.Replay(&sink, func() { runs, at = runs+1, int64(len(sink)) }); err != nil {
		t.Fatal(err)
	}
	if wantRuns := min(1, int(want+1)); runs != wantRuns || at != want {
		t.Errorf("boundary %d: hook ran %d times, last after %d events; want %d times, after %d",
			build, runs, at, wantRuns, want)
	}
	if !reflect.DeepEqual([]trace.Event(sink), events) {
		t.Errorf("boundary %d: delivered %d events, want %d", build, len(sink), len(events))
	}
}

func TestBufferReplayHookPosition(t *testing.T) {
	rt := bufferTrace(t, hookTestEvents)
	n := int64(len(hookTestEvents))
	for _, at := range []int64{0, 1, n / 2, n} {
		checkHook(t, rt, hookTestEvents, at, at)
	}
	// Past the end, or with no recorded boundary, the hook never runs.
	checkHook(t, rt, hookTestEvents, n+1, -1)
	checkHook(t, rt, hookTestEvents, -1, -1)
	// At the start of an empty trace it runs before the first event.
	checkHook(t, bufferTrace(t, nil), nil, 0, 0)
}

// TestFrozenReplayHookPosition checks the hook on a frozen buffer:
// recording finished and Compact called, as trace caches hold it. Every
// replay of the one buffer runs the hook exactly once, after exactly
// the boundary's events, and delivers the whole trace.
func TestFrozenReplayHookPosition(t *testing.T) {
	rt := bufferTrace(t, hookTestEvents)
	rt.Buffer.Compact()
	n := int64(len(hookTestEvents))
	for _, at := range []int64{0, 3, n} {
		for replay := 0; replay < 2; replay++ {
			checkHook(t, rt, hookTestEvents, at, at)
		}
	}
	checkHook(t, rt, hookTestEvents, n+1, -1)
}

func TestChunkStreamHookPosition(t *testing.T) {
	rt := streamedTrace(t, hookTestEvents)
	if rt.Stream.Chunks() < 3 {
		t.Fatalf("hook fixture has %d chunks, want several", rt.Stream.Chunks())
	}
	n := int64(len(hookTestEvents))
	for at := int64(0); at <= n; at++ {
		checkHook(t, rt, hookTestEvents, at, at)
	}
	checkHook(t, rt, hookTestEvents, n+1, -1)
	checkHook(t, rt, hookTestEvents, -1, -1)
}

func TestChunkStreamEmptyTraceHook(t *testing.T) {
	checkHook(t, streamedTrace(t, nil), nil, 0, 0)
}
