package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"odbgc/internal/heap"
)

// The packed event encoding is a one-byte opcode (the Kind) followed by
// the event's operands as unsigned varints, in the operand order Buffer
// documents: typically 2-10 bytes per event. It is the payload codec of
// the chunked trace file; in memory, traces live in Buffer's columns.

// appendEvent appends the packed opcode+varint encoding of e to b: the
// chunk payload encoding ChunkWriter writes.
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
// (opcodes, truncation) but not Validate — chunk payloads only hold
// events that were validated on the way in, and the payload CRC guards
// them on disk.
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
