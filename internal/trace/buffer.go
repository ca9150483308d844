package trace

import "odbgc/internal/heap"

// Buffer is an in-memory recorded trace in the packed delta encoding
// the chunked file's payloads use (codec.go): about 1.6 bytes per event
// on the paper's base workload. Emit validates each event and appends
// its encoding, and Replay decodes the bytes back with no allocation
// and no checks — they are bytes Emit wrote — so a whole workload
// seed's event stream can be generated once, held in memory, and
// replayed into any number of simulators. The zero value is an empty
// buffer ready for use.
//
// The bytes are kept in segments, each allocated once at segmentBytes
// and filled, as ChunkWriter fills a chunk, until it has no room left
// for a maximal event, so no segment ever grows or is copied while
// recording, and peak memory stays close to the trace's own size. Each
// segment's delta base starts at 0, so each decodes on its own.
//
// A Buffer is not safe for concurrent mutation, but once fully recorded
// it may be replayed from any number of goroutines concurrently: replay
// only reads.
type Buffer struct {
	// segs holds the packed events; only the last may have room for
	// more.
	segs [][]byte
	// prev is the delta base of the last segment: its last event's OID.
	prev   heap.OID
	events int64
}

// segmentBytes is the capacity of a Buffer segment.
const segmentBytes = 1 << 20

// Emit appends one event, implementing Sink. An invalid event or one
// with an operand above 2^32-1 is rejected with an error naming the
// event and the operand, and the buffer's events are unchanged.
func (b *Buffer) Emit(e Event) error {
	last := len(b.segs) - 1
	if last < 0 || cap(b.segs[last])-len(b.segs[last]) < maxEventBytes {
		b.segs = append(b.segs, make([]byte, 0, segmentBytes))
		b.prev = heap.NilOID
		last++
	}
	seg, err := appendEvent(b.segs[last], b.prev, e, b.events)
	if err != nil {
		return err
	}
	b.segs[last], b.prev = seg, e.OID
	b.events++
	return nil
}

// Len reports the number of recorded events.
func (b *Buffer) Len() int64 { return b.events }

// SizeBytes reports the memory held by the packed segments; trace
// caches charge it against their budget.
func (b *Buffer) SizeBytes() int64 {
	var n int64
	for _, s := range b.segs {
		n += int64(cap(s))
	}
	return n
}

// Compact releases the spare room of a last segment that still has
// room for an event, copying it to its length once. Call it once after
// recording completes, before long-term caching; a later Emit starts a
// new segment.
func (b *Buffer) Compact() {
	if last := len(b.segs) - 1; last >= 0 && cap(b.segs[last])-len(b.segs[last]) >= maxEventBytes {
		s := b.segs[last]
		b.segs[last] = append(make([]byte, 0, len(s)), s...)
	}
}

// Replay streams every recorded event into sink in recording order,
// through the zero-alloc packed replay loop (pinned by the
// buffer-replay AllocsPerRun guard).
//
//odbgc:hotpath
func (b *Buffer) Replay(sink Sink) error {
	for _, s := range b.segs {
		if err := replayPacked(s, sink); err != nil {
			return err
		}
	}
	return nil
}
