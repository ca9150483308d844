package trace

import (
	"fmt"
	"math"

	"odbgc/internal/heap"
)

// Buffer is an in-memory recorded trace in columnar form: one opcode
// column and one 32-bit operand column. Emit appends each event straight
// to the columns, and replay reassembles each event from sequential
// column reads with no decoding and no allocation, so a whole workload
// seed's event stream can be generated once, held in memory, and
// replayed into any number of simulators at the cost of the simulators
// alone. The zero value is an empty buffer ready for use.
//
// Operand layout: each event contributes its operands to the operand
// column in event order — Create: OID, Size, NFields, Parent, then
// ParentField only when Parent is non-nil; Root/Read/Modify: OID; Write:
// OID, Field, Target. An operand above 2^32-1 does not fit and fails
// Emit by name.
//
// The columns are kept in segments of segmentEvents events, each trimmed
// to size when it fills. Growing one contiguous pair of columns would
// briefly hold the old and the new copy of the whole trace at every
// reallocation; segments bound that to one segment, which keeps peak
// memory while recording close to the trace's own size.
//
// A Buffer is not safe for concurrent mutation, but once fully recorded
// it may be replayed from any number of goroutines concurrently: replay
// only reads.
type Buffer struct {
	segs   []segment // filled segments, then the open one
	events int64
}

// segment is a run of up to segmentEvents events in columnar form.
type segment struct {
	kinds []Kind
	args  []uint32
}

// segmentEvents is the number of events per Buffer segment.
const segmentEvents = 1 << 20

// Emit appends one event, implementing Sink. An invalid event or one
// with an operand too large for the 32-bit column is rejected with an
// error naming the event and the operand, and the buffer is unchanged.
func (b *Buffer) Emit(e Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if len(b.segs) == 0 || len(b.segs[len(b.segs)-1].kinds) == segmentEvents {
		b.Compact()
		b.segs = append(b.segs, segment{})
	}
	s := &b.segs[len(b.segs)-1]
	var err error
	if s.kinds, s.args, err = pushColumns(s.kinds, s.args, e); err != nil {
		return fmt.Errorf("trace: event %d: %w", b.events, err)
	}
	b.events++
	return nil
}

// Len reports the number of recorded events.
func (b *Buffer) Len() int64 { return b.events }

// SizeBytes reports the memory held by the columns; trace caches charge
// it against their budget.
func (b *Buffer) SizeBytes() int64 {
	var n int64
	for _, s := range b.segs {
		n += int64(cap(s.kinds)) + 4*int64(cap(s.args))
	}
	return n
}

// Compact trims the open segment's spare append capacity. Call once
// after recording completes, before long-term caching.
func (b *Buffer) Compact() {
	if len(b.segs) == 0 {
		return
	}
	s := &b.segs[len(b.segs)-1]
	if cap(s.kinds) > len(s.kinds) {
		s.kinds = append(make([]Kind, 0, len(s.kinds)), s.kinds...)
	}
	if cap(s.args) > len(s.args) {
		s.args = append(make([]uint32, 0, len(s.args)), s.args...)
	}
}

// Replay streams every recorded event into sink in recording order. The
// replay loop performs no decoding and no heap allocation (pinned by the
// buffer-replay AllocsPerRun guard).
//
//odbgc:hotpath
func (b *Buffer) Replay(sink Sink) error {
	for _, s := range b.segs {
		if err := replayColumns(s.kinds, s.args, sink); err != nil {
			return err
		}
	}
	return nil
}

// checkOperands returns an error naming the first operand of e that
// does not fit the 32-bit operand column, or nil.
func checkOperands(e Event) error {
	var all uint64
	switch e.Kind {
	case KindCreate:
		all = uint64(e.OID) | uint64(e.Size) | uint64(e.NFields) | uint64(e.Parent)
		if e.Parent != heap.NilOID {
			all |= uint64(e.ParentField)
		}
	case KindRoot, KindRead, KindModify:
		all = uint64(e.OID)
	case KindWrite:
		all = uint64(e.OID) | uint64(e.Field) | uint64(e.Target)
	}
	if all <= math.MaxUint32 {
		return nil
	}
	type operand struct {
		name string
		v    uint64
	}
	ops := [5]operand{{"OID", uint64(e.OID)}}
	switch e.Kind {
	case KindCreate:
		ops = [5]operand{{"OID", uint64(e.OID)}, {"Size", uint64(e.Size)}, {"NFields", uint64(e.NFields)}, {"Parent", uint64(e.Parent)}, {"ParentField", uint64(e.ParentField)}}
	case KindWrite:
		ops = [5]operand{{"OID", uint64(e.OID)}, {"Field", uint64(e.Field)}, {"Target", uint64(e.Target)}}
	case KindRoot, KindRead, KindModify:
	}
	for _, op := range ops {
		if op.v > math.MaxUint32 {
			return fmt.Errorf("%s operand %s = %d exceeds the 32-bit operand column", e.Kind, op.name, op.v) //odbgc:alloc-ok error path formats its report
		}
	}
	return nil
}

// pushColumns appends one event's kind and operands to the columnar
// layout shared by Buffer (whole-trace columns) and Chunk (per-chunk
// columns). On error the columns are returned unchanged.
func pushColumns(kinds []Kind, args []uint32, e Event) ([]Kind, []uint32, error) {
	if err := checkOperands(e); err != nil {
		return kinds, args, err
	}
	switch e.Kind {
	case KindCreate:
		args = append(args, uint32(e.OID), uint32(e.Size), uint32(e.NFields), uint32(e.Parent))
		if e.Parent != heap.NilOID {
			args = append(args, uint32(e.ParentField))
		}
	case KindRoot, KindRead, KindModify:
		args = append(args, uint32(e.OID))
	case KindWrite:
		args = append(args, uint32(e.OID), uint32(e.Field), uint32(e.Target))
	default:
		return kinds, args, fmt.Errorf("unknown kind %d", e.Kind)
	}
	return append(kinds, e.Kind), args, nil
}

// replayColumns is the zero-alloc columnar replay loop behind
// Buffer.Replay and Chunk.Replay: each event is reassembled from
// sequential column reads with no varint decoding and no heap allocation
// (pinned by the buffer- and chunk-replay AllocsPerRun guards).
//
//odbgc:hotpath
func replayColumns(kinds []Kind, args []uint32, sink Sink) error {
	a := 0
	for _, k := range kinds {
		var e Event
		e.Kind = k
		switch k {
		case KindCreate:
			e.OID = heap.OID(args[a])
			e.Size = int64(args[a+1])
			e.NFields = int(args[a+2])
			e.Parent = heap.OID(args[a+3])
			a += 4
			if e.Parent != heap.NilOID {
				e.ParentField = int(args[a])
				a++
			}
		case KindRoot, KindRead, KindModify:
			e.OID = heap.OID(args[a])
			a++
		case KindWrite:
			e.OID = heap.OID(args[a])
			e.Field = int(args[a+1])
			e.Target = heap.OID(args[a+2])
			a += 3
		}
		if err := sink.Emit(e); err != nil {
			return err
		}
	}
	return nil
}
