package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"odbgc/internal/heap"
)

// The packed event encoding is the only form an event takes, in memory
// (Buffer's segments) as in the chunked trace file (chunk payloads).
// Each event opens with one uvarint head: its low kindBits bits carry
// the Kind, and the bits above them the zigzag delta of the event's OID
// from the previous event's OID in the same payload (from 0 at a
// payload's start, so every payload decodes on its own). The operands
// follow as uvarints: Create: Size, NFields, the zigzag delta of Parent
// from the event's OID, then ParentField only when Parent is non-nil;
// Write: Field, then the zigzag delta of Target from the event's OID;
// Root, Read and Modify: none. The workload builds and traverses its
// trees breadth-first, so consecutive events name nearby objects and a
// read or a modify usually takes one byte: the base workload's trace
// averages about 1.6 bytes per event. Every OID, Parent and Target, and
// every other operand, lies within [0, 2^32): both write paths refuse
// an event outside it (checkOperands), and the chunk reader refuses a
// payload that decodes outside it.

const (
	// kindBits is the width of the kind field at the bottom of an
	// event's head.
	kindBits = 3
	kindMask = 1<<kindBits - 1
)

// zigzag maps a signed delta to an unsigned value, small magnitudes to
// small values: 0, -1, 1, -2, ... become 0, 1, 2, 3, ...
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag modulo 2^64, so base + unzigzag(zigzag(d))
// is base + d in uint64 arithmetic.
func unzigzag(u uint64) uint64 { return u>>1 ^ -(u & 1) }

// appendEvent validates e, with Validate and then checkOperands, and
// appends its packed encoding to b, with prev, the previous event's OID
// in b's payload (NilOID at its start), as the delta base. It writes
// into b's spare capacity, which must hold maxEventBytes, and never
// grows b. A rejected event leaves b as it was and returns the error
// Validate reports, or else checkOperands' error naming index, the
// event's position in its trace.
func appendEvent(b []byte, prev heap.OID, e Event, index int64) ([]byte, error) {
	if err := e.Validate(); err != nil { //odbgc:alloc-ok error path formats its report
		return b, err
	}
	if err := checkOperands(e); err != nil {
		return b, fmt.Errorf("trace: event %d: %w", index, err) //odbgc:alloc-ok error path formats its report
	}
	n := len(b)
	p := b[n : n+maxEventBytes]
	oid := int64(e.OID)
	k := binary.PutUvarint(p, zigzag(oid-int64(prev))<<kindBits|uint64(e.Kind))
	switch e.Kind {
	case KindCreate:
		k += binary.PutUvarint(p[k:], uint64(e.Size))
		k += binary.PutUvarint(p[k:], uint64(e.NFields))
		k += binary.PutUvarint(p[k:], zigzag(int64(e.Parent)-oid))
		if e.Parent != heap.NilOID {
			k += binary.PutUvarint(p[k:], uint64(e.ParentField))
		}
	case KindWrite:
		k += binary.PutUvarint(p[k:], uint64(e.Field))
		k += binary.PutUvarint(p[k:], zigzag(int64(e.Target)-oid))
	case KindRoot, KindRead, KindModify:
	}
	return b[:n+k], nil
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

// payloadWalk is walkPayload's cursor: the bytes, the position in them,
// the events begun so far, and the first fault found.
type payloadWalk struct {
	data []byte
	pos  int
	n    int
	err  error
}

// uvarint reads the uvarint at the cursor, or records a varint that
// does not end inside the payload; after a fault it returns 0.
func (w *payloadWalk) uvarint() uint64 {
	if w.err != nil {
		return 0
	}
	v, sz := binary.Uvarint(w.data[w.pos:])
	if sz <= 0 {
		w.err = fmt.Errorf("corrupt payload at event %d: %w", w.n, io.ErrUnexpectedEOF)
		return 0
	}
	w.pos += sz
	return v
}

// operand returns v, recording a fault when it, the value of operand
// name of a k event, lies outside [0, 2^32). A reconstructed OID below
// zero arrives wrapped to the top of uint64 and is reported signed.
func (w *payloadWalk) operand(k Kind, name string, v uint64) uint64 {
	if w.err == nil && v > math.MaxUint32 {
		w.err = fmt.Errorf("event %d: %s operand %s = %d is outside the 32-bit operand range", w.n, k, name, int64(v))
	}
	return v
}

// walkPayload checks that data is a whole number of packed events, each
// of a known kind (1-5), with varints that end inside data, and with
// every reconstructed OID, Parent and Target, and every other operand,
// within [0, 2^32), and returns how many events it holds. These are the
// properties replayPacked relies on without checking; the walk builds
// no events.
func walkPayload(data []byte) (int, error) {
	w := payloadWalk{data: data}
	var oid uint64 // the delta base: the previous event's OID
	for ; w.pos < len(data) && w.err == nil; w.n++ {
		head := w.uvarint()
		k := Kind(head & kindMask)
		if w.err == nil && (k < KindCreate || k > KindModify) {
			w.err = fmt.Errorf("corrupt payload at event %d: unknown event kind %d", w.n, k)
		}
		oid = w.operand(k, "OID", oid+unzigzag(head>>kindBits))
		switch k {
		case KindCreate:
			w.operand(k, "Size", w.uvarint())
			w.operand(k, "NFields", w.uvarint())
			if w.operand(k, "Parent", oid+unzigzag(w.uvarint())) != uint64(heap.NilOID) {
				w.operand(k, "ParentField", w.uvarint())
			}
		case KindWrite:
			w.operand(k, "Field", w.uvarint())
			w.operand(k, "Target", oid+unzigzag(w.uvarint()))
		case KindRoot, KindRead, KindModify:
		}
	}
	if w.err != nil {
		return 0, w.err
	}
	return w.n, nil
}

// replayPacked is the replay loop behind Buffer.Replay and Chunk.Replay:
// it decodes data's packed events in order into sink, adding the deltas
// back onto their bases, with no heap allocation (pinned by the buffer-
// and chunk-replay AllocsPerRun guards). It checks nothing, so data
// must be a whole payload that Buffer.Emit encoded or walkPayload
// accepted.
//
//odbgc:hotpath
func replayPacked(data []byte, sink Sink) error {
	var oid uint64 // the delta base: the previous event's OID
	for pos := 0; pos < len(data); {
		var e Event
		var v uint64
		v, pos = uvarintAt(data, pos)
		e.Kind = Kind(v & kindMask)
		oid += unzigzag(v >> kindBits)
		e.OID = heap.OID(oid)
		switch e.Kind {
		case KindCreate:
			v, pos = uvarintAt(data, pos)
			e.Size = int64(v)
			v, pos = uvarintAt(data, pos)
			e.NFields = int(v)
			v, pos = uvarintAt(data, pos)
			e.Parent = heap.OID(oid + unzigzag(v))
			if e.Parent != heap.NilOID {
				v, pos = uvarintAt(data, pos)
				e.ParentField = int(v)
			}
		case KindWrite:
			v, pos = uvarintAt(data, pos)
			e.Field = int(v)
			v, pos = uvarintAt(data, pos)
			e.Target = heap.OID(oid + unzigzag(v))
		case KindRoot, KindRead, KindModify:
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
