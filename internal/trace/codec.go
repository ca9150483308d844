package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"odbgc/internal/heap"
)

// The packed event encoding is the only form an event takes, in memory
// (Buffer's segments) as in the chunked trace file (chunk payloads): a
// one-byte opcode (the Kind) followed by the event's operands as
// unsigned varints, typically 2-10 bytes per event. Operand order:
// Create: OID, Size, NFields, Parent, then ParentField only when Parent
// is non-nil; Root/Read/Modify: OID; Write: OID, Field, Target. Every
// operand fits 32 bits: both write paths refuse a wider one
// (checkOperands), and the chunk reader refuses a payload holding one.

// appendEvent appends the packed opcode+varint encoding of e to b.
func appendEvent(b []byte, e Event) []byte {
	b = append(b, byte(e.Kind))
	switch e.Kind {
	case KindCreate:
		b = binary.AppendUvarint(b, uint64(e.OID))
		b = binary.AppendUvarint(b, uint64(e.Size))
		b = binary.AppendUvarint(b, uint64(e.NFields))
		b = binary.AppendUvarint(b, uint64(e.Parent))
		if e.Parent != heap.NilOID {
			b = binary.AppendUvarint(b, uint64(e.ParentField))
		}
	case KindRoot, KindRead, KindModify:
		b = binary.AppendUvarint(b, uint64(e.OID))
	case KindWrite:
		b = binary.AppendUvarint(b, uint64(e.OID))
		b = binary.AppendUvarint(b, uint64(e.Field))
		b = binary.AppendUvarint(b, uint64(e.Target))
	}
	return b
}

// decodeEvent decodes one packed event from the front of data, returning
// the event and the number of bytes consumed. It checks structure
// (opcodes, truncation) but not Validate or the 32-bit operand bound;
// walkPayload adds the bound.
func decodeEvent(data []byte) (Event, int, error) {
	if len(data) == 0 {
		return Event{}, 0, io.ErrUnexpectedEOF
	}
	e := Event{Kind: Kind(data[0])}
	pos := 1
	bad := false
	uv := func() uint64 { //odbgc:alloc-ok non-escaping closure, stack-allocated
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			bad = true
			return 0
		}
		pos += n
		return v
	}
	switch e.Kind {
	case KindCreate:
		e.OID = heap.OID(uv())
		e.Size = int64(uv())
		e.NFields = int(uv())
		e.Parent = heap.OID(uv())
		if !bad && e.Parent != heap.NilOID {
			e.ParentField = int(uv())
		}
	case KindRoot, KindRead, KindModify:
		e.OID = heap.OID(uv())
	case KindWrite:
		e.OID = heap.OID(uv())
		e.Field = int(uv())
		e.Target = heap.OID(uv())
	default:
		return Event{}, 0, fmt.Errorf("trace: unknown opcode %d", data[0]) //odbgc:alloc-ok corrupt-input error path
	}
	if bad {
		return Event{}, 0, io.ErrUnexpectedEOF
	}
	return e, pos, nil
}

// checkOperands returns an error naming the first operand of e above
// 2^32-1, or nil.
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
			return fmt.Errorf("%s operand %s = %d exceeds the 32-bit operand bound", e.Kind, op.name, op.v) //odbgc:alloc-ok error path formats its report
		}
	}
	return nil
}

// walkPayload checks that data is a whole number of packed events, each
// with a known opcode, varints that end inside data, and operands that
// fit 32 bits, and returns how many events it holds. These are the
// properties replayPacked relies on without checking; it builds
// nothing.
func walkPayload(data []byte) (int, error) {
	n := 0
	for pos := 0; pos < len(data); n++ {
		e, sz, err := decodeEvent(data[pos:])
		if err != nil {
			return 0, fmt.Errorf("corrupt payload at event %d: %w", n, err)
		}
		if err := checkOperands(e); err != nil {
			return 0, fmt.Errorf("event %d: %w", n, err)
		}
		pos += sz
	}
	return n, nil
}

// replayPacked is the replay loop behind Buffer.Replay and Chunk.Replay:
// it decodes data's packed events in order into sink with no heap
// allocation (pinned by the buffer- and chunk-replay AllocsPerRun
// guards). It checks nothing, so data must be bytes Buffer.Emit encoded
// or walkPayload accepted.
//
//odbgc:hotpath
func replayPacked(data []byte, sink Sink) error {
	for pos := 0; pos < len(data); {
		var e Event
		var v uint64
		e.Kind = Kind(data[pos])
		pos++
		switch e.Kind {
		case KindCreate:
			v, pos = uvarintAt(data, pos)
			e.OID = heap.OID(v)
			v, pos = uvarintAt(data, pos)
			e.Size = int64(v)
			v, pos = uvarintAt(data, pos)
			e.NFields = int(v)
			v, pos = uvarintAt(data, pos)
			e.Parent = heap.OID(v)
			if e.Parent != heap.NilOID {
				v, pos = uvarintAt(data, pos)
				e.ParentField = int(v)
			}
		case KindRoot, KindRead, KindModify:
			v, pos = uvarintAt(data, pos)
			e.OID = heap.OID(v)
		case KindWrite:
			v, pos = uvarintAt(data, pos)
			e.OID = heap.OID(v)
			v, pos = uvarintAt(data, pos)
			e.Field = int(v)
			v, pos = uvarintAt(data, pos)
			e.Target = heap.OID(v)
		}
		if err := sink.Emit(e); err != nil {
			return err
		}
	}
	return nil
}

// uvarintAt decodes the uvarint starting at data[pos] and returns it
// with the position just past it. The varint must end inside data; on
// those bytes it returns what binary.Uvarint does.
func uvarintAt(data []byte, pos int) (uint64, int) {
	var v uint64
	for s := uint(0); ; s += 7 {
		b := data[pos]
		pos++
		if b < 0x80 {
			return v | uint64(b)<<s, pos
		}
		v |= uint64(b&0x7f) << s
	}
}
