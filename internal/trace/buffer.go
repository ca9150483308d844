package trace

import "fmt"

// Buffer is an in-memory recorded trace in the packed opcode+uvarint
// encoding the chunked file's payloads use (codec.go): about 4 bytes
// per event on the paper's base workload. Emit validates each event and
// appends its encoding, and Replay decodes the bytes back with no
// allocation and no checks — they are bytes Emit wrote — so a whole
// workload seed's event stream can be generated once, held in memory,
// and replayed into any number of simulators. The zero value is an
// empty buffer ready for use.
//
// The bytes are kept in segments of segmentEvents events, each trimmed
// to size when it fills. Growing one contiguous slice would briefly
// hold the old and the new copy of the whole trace at every
// reallocation; segments bound that to one segment, which keeps peak
// memory while recording close to the trace's own size.
//
// A Buffer is not safe for concurrent mutation, but once fully recorded
// it may be replayed from any number of goroutines concurrently: replay
// only reads.
type Buffer struct {
	// segs holds the packed events: segmentEvents per filled segment,
	// then the open one.
	segs   [][]byte
	events int64
}

// segmentEvents is the number of events per Buffer segment.
const segmentEvents = 1 << 20

// Emit appends one event, implementing Sink. An invalid event or one
// with an operand above 2^32-1 is rejected with an error naming the
// event and the operand, and the buffer is unchanged.
func (b *Buffer) Emit(e Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if err := checkOperands(e); err != nil {
		return fmt.Errorf("trace: event %d: %w", b.events, err)
	}
	if b.events%segmentEvents == 0 {
		b.Compact()
		b.segs = append(b.segs, nil)
	}
	open := &b.segs[len(b.segs)-1]
	*open = appendEvent(*open, e)
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

// Compact trims the open segment's spare append capacity. Call once
// after recording completes, before long-term caching.
func (b *Buffer) Compact() {
	if len(b.segs) == 0 {
		return
	}
	open := &b.segs[len(b.segs)-1]
	if cap(*open) > len(*open) {
		*open = append(make([]byte, 0, len(*open)), *open...)
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
