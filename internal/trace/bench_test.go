package trace

import (
	"math/rand"
	"testing"

	"odbgc/internal/heap"
)

// benchSink counts events without retaining them; Emit must not cause
// the argument to escape.
type benchSink struct{ n int64 }

func (s *benchSink) Emit(e Event) error {
	s.n++
	return nil
}

// benchBuffer records a deterministic synthetic stream whose kind mix
// roughly matches the workload generator's (creates with and without
// parents, reads, pointer writes, data modifies).
func benchBuffer(tb testing.TB, events int) *Buffer {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	var b Buffer
	next := heap.OID(1)
	emit := func(e Event) {
		if err := b.Emit(e); err != nil {
			tb.Fatal(err)
		}
	}
	emit(Event{Kind: KindCreate, OID: next, Size: 100, NFields: 4})
	next++
	for int(b.Len()) < events {
		switch rng.Intn(10) {
		case 0, 1:
			parent := heap.OID(rng.Int63n(int64(next))) // may be NilOID
			e := Event{Kind: KindCreate, OID: next, Size: int64(50 + rng.Intn(100)), NFields: 4, Parent: parent}
			if parent != heap.NilOID {
				e.ParentField = rng.Intn(4)
			}
			emit(e)
			next++
		case 2:
			emit(Event{Kind: KindRoot, OID: 1 + heap.OID(rng.Int63n(int64(next-1)))})
		case 3, 4, 5, 6:
			emit(Event{Kind: KindRead, OID: 1 + heap.OID(rng.Int63n(int64(next-1)))})
		case 7, 8:
			emit(Event{Kind: KindWrite, OID: 1 + heap.OID(rng.Int63n(int64(next-1))),
				Field: rng.Intn(4), Target: heap.OID(rng.Int63n(int64(next)))})
		default:
			emit(Event{Kind: KindModify, OID: 1 + heap.OID(rng.Int63n(int64(next-1)))})
		}
	}
	b.Compact()
	return &b
}

// BenchmarkBufferReplay measures one replay step of the packed form:
// per-op cost is one event's decode plus the sink call.
func BenchmarkBufferReplay(b *testing.B) {
	const events = 4096
	buf := benchBuffer(b, events)
	var sink benchSink
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += events {
		if err := buf.Replay(&sink); err != nil {
			b.Fatal(err)
		}
	}
}
