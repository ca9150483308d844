package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"odbgc/internal/heap"
)

// decodeEvent is the tests' checked decoder, written apart from the
// production walk and replay loops: it decodes one packed event from
// the front of data, whose delta base is prev, and returns it with the
// number of bytes consumed. It checks the kind and that every varint
// ends inside data, but not Validate or the 32-bit operand range; a
// reconstructed OID below zero wraps as replay's does.
func decodeEvent(data []byte, prev heap.OID) (Event, int, error) {
	pos := 0
	bad := false
	uv := func() uint64 {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			bad = true
			return 0
		}
		pos += n
		return v
	}
	// plus adds the zigzag-coded delta u to base, wrapping as uint64.
	plus := func(base heap.OID, u uint64) heap.OID {
		if u&1 == 0 {
			return base + heap.OID(u/2)
		}
		return base - heap.OID(u/2) - 1
	}
	head := uv()
	if bad {
		return Event{}, 0, io.ErrUnexpectedEOF
	}
	e := Event{Kind: Kind(head % 8), OID: plus(prev, head/8)}
	switch e.Kind {
	case KindCreate:
		e.Size = int64(uv())
		e.NFields = int(uv())
		e.Parent = plus(e.OID, uv())
		if !bad && e.Parent != heap.NilOID {
			e.ParentField = int(uv())
		}
	case KindRoot, KindRead, KindModify:
	case KindWrite:
		e.Field = int(uv())
		e.Target = plus(e.OID, uv())
	default:
		return Event{}, 0, fmt.Errorf("unknown event kind %d", e.Kind)
	}
	if bad {
		return Event{}, 0, io.ErrUnexpectedEOF
	}
	return e, pos, nil
}

// encodeEvents packs events into one payload through appendEvent, the
// writers' encoder, failing the test on an event it refuses.
func encodeEvents(tb testing.TB, events ...Event) []byte {
	tb.Helper()
	b := make([]byte, 0, (len(events)+1)*maxEventBytes)
	prev := heap.NilOID
	for i, e := range events {
		var err error
		if b, err = appendEvent(b, prev, e, int64(i)); err != nil {
			tb.Fatal(err)
		}
		prev = e.OID
	}
	return b
}

// decodeAll decodes data's events with decodeEvent up to the first
// error, reporting whether it decoded the whole of data.
func decodeAll(data []byte) (events []Event, whole bool) {
	prev := heap.NilOID
	for pos := 0; pos < len(data); {
		e, n, err := decodeEvent(data[pos:], prev)
		if err != nil {
			return events, false
		}
		pos += n
		prev = e.OID
		events = append(events, e)
	}
	return events, true
}

// TestCodecLayout pins the head and operand layout on hand-computed
// bytes: kind in the low three bits, the zigzag OID delta above them,
// and Parent and Target as zigzag deltas from the event's own OID.
func TestCodecLayout(t *testing.T) {
	for _, tc := range []struct {
		events []Event
		want   []byte
	}{
		// OID 1 from base 0: delta +1, zigzag 2, head 2<<3|1 = 17.
		{[]Event{{Kind: KindCreate, OID: 1, Size: 120, NFields: 4}}, []byte{17, 120, 4, 1}},
		// Parent 1 of OID 2: delta -1, zigzag 1; ParentField 3 follows.
		{[]Event{{Kind: KindCreate, OID: 2, Size: 90, NFields: 2, Parent: 1, ParentField: 3}}, []byte{4<<3 | 1, 90, 2, 1, 3}},
		// A read of the previous event's OID is one byte: delta 0.
		{[]Event{{Kind: KindRead, OID: 5}, {Kind: KindRead, OID: 5}, {Kind: KindModify, OID: 4}},
			[]byte{10<<3 | 3, 3, 1<<3 | 5}},
		// A nil Target of OID 3: delta -3, zigzag 5.
		{[]Event{{Kind: KindWrite, OID: 3, Field: 1, Target: heap.NilOID}}, []byte{6<<3 | 4, 1, 5}},
		// Head 64<<3|2 = 514 takes two bytes.
		{[]Event{{Kind: KindRoot, OID: 32}}, []byte{0x82, 0x04}},
	} {
		got := encodeEvents(t, tc.events...)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%+v encoded as %v, want %v", tc.events, got, tc.want)
		}
		if n, err := walkPayload(got); err != nil || n != len(tc.events) {
			t.Errorf("%v: walk counted %d events, err %v; want %d", got, n, err, len(tc.events))
		}
		var sink collectSink
		if err := replayPacked(got, &sink); err != nil || !reflect.DeepEqual(sink.events, tc.events) {
			t.Errorf("%v replayed as %+v (err %v), want %+v", got, sink.events, err, tc.events)
		}
	}
}

// TestWalkRejectsOutOfRange checks that the walk refuses, naming the
// event, the operand and its value, every operand a payload can carry
// outside [0, 2^32): OIDs, Parents and Targets reconstructed below zero
// or past the bound, and plain operands past it.
func TestWalkRejectsOutOfRange(t *testing.T) {
	head := func(k Kind, delta int64) uint64 { return zigzag(delta)<<kindBits | uint64(k) }
	for _, tc := range []struct {
		varints []uint64
		want    string
	}{
		{[]uint64{head(KindRead, -1)}, "event 0: read operand OID = -1"},
		{[]uint64{head(KindRead, 5), head(KindModify, 1<<32-5)}, "event 1: modify operand OID = 4294967296"},
		{[]uint64{head(KindCreate, 3), 1, 0, zigzag(-4)}, "event 0: create operand Parent = -1"},
		{[]uint64{head(KindCreate, 3), 1 << 32, 0, zigzag(-3)}, "event 0: create operand Size = 4294967296"},
		{[]uint64{head(KindCreate, 3), 1, 1 << 32, zigzag(-3)}, "event 0: create operand NFields = 4294967296"},
		{[]uint64{head(KindCreate, 3), 1, 0, zigzag(-1), 1 << 32}, "event 0: create operand ParentField = 4294967296"},
		{[]uint64{head(KindWrite, 1), 1 << 32, 0}, "event 0: write operand Field = 4294967296"},
		{[]uint64{head(KindWrite, 1), 0, zigzag(1 << 32)}, "event 0: write operand Target = 4294967297"},
	} {
		var payload []byte
		for _, v := range tc.varints {
			payload = binary.AppendUvarint(payload, v)
		}
		if _, err := walkPayload(payload); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("walk of %v: err = %v, want %q", tc.varints, err, tc.want)
		}
	}
}
