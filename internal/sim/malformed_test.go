package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/trace"
)

// emitAll feeds events to a fresh simulator and returns the first error
// Emit reports. A panic fails the calling test.
func emitAll(t *testing.T, events []trace.Event) error {
	t.Helper()
	s, err := New(smallSim(core.NameUpdatedPointer))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := s.Emit(e); err != nil {
			return err
		}
	}
	return nil
}

// TestEmitRejectsDuplicateCreate: a trace that creates an OID that is
// already resident is malformed input, not a simulator bug, so Emit must
// name it in an error instead of panicking.
func TestEmitRejectsDuplicateCreate(t *testing.T) {
	err := emitAll(t, []trace.Event{
		{Kind: trace.KindCreate, OID: 1, Size: 100, NFields: 1},
		{Kind: trace.KindCreate, OID: 1, Size: 100, NFields: 1},
	})
	if !errors.Is(err, heap.ErrResident) || !strings.Contains(err.Error(), "Alloc(1)") {
		t.Fatalf("duplicate create: err = %v, want heap.ErrResident naming OID 1", err)
	}
}

// TestEmitRejectsFieldsBeyondKeyWidth: remembered-set entries pack the
// field number into 16 bits, so a cross-partition store into field 65537
// of a 70,000-field object cannot be recorded. The create must fail by
// name rather than the store panicking later.
func TestEmitRejectsFieldsBeyondKeyWidth(t *testing.T) {
	partBytes := smallSim(core.NameUpdatedPointer).Heap.PartitionBytes()
	err := emitAll(t, []trace.Event{
		{Kind: trace.KindCreate, OID: 1, Size: 100, NFields: 70_000},
		// Too big to share object 1's partition.
		{Kind: trace.KindCreate, OID: 2, Size: partBytes, NFields: 0},
		{Kind: trace.KindWrite, OID: 1, Field: 65_537, Target: 2},
	})
	if !errors.Is(err, heap.ErrTooManyFields) || !strings.Contains(err.Error(), "70000") {
		t.Fatalf("70,000-field create: err = %v, want heap.ErrTooManyFields naming the count", err)
	}
}

// TestEmitRejectsMalformedEvents feeds, after a valid prefix, every
// event shape trace.Event.Validate rejects, plus two unknown kinds. Emit
// does not call Validate, so each must still fail by name further down,
// and before it changes anything: the run's Result must equal that of
// the prefix alone.
func TestEmitRejectsMalformedEvents(t *testing.T) {
	prefix := []trace.Event{
		{Kind: trace.KindCreate, OID: 1, Size: 100, NFields: 2},
		{Kind: trace.KindRoot, OID: 1},
		{Kind: trace.KindCreate, OID: 2, Size: 100, NFields: 1, Parent: 1, ParentField: 0},
		{Kind: trace.KindRead, OID: 2},
		{Kind: trace.KindWrite, OID: 1, Field: 1, Target: 2},
		{Kind: trace.KindModify, OID: 1},
	}
	run := func(bad *trace.Event) (Result, error) {
		s, err := New(smallSim(core.NameUpdatedPointer))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range prefix {
			if err := s.Emit(e); err != nil {
				t.Fatalf("valid prefix: %v", err)
			}
		}
		if bad != nil {
			err = s.Emit(*bad)
		}
		return s.Finish(), err
	}
	want, _ := run(nil)
	for _, bad := range []trace.Event{
		{Kind: trace.KindCreate, OID: heap.NilOID, Size: 100, NFields: 1},
		{Kind: trace.KindCreate, OID: 3, Size: 0, NFields: 1},
		{Kind: trace.KindCreate, OID: 3, Size: -100, NFields: 1},
		{Kind: trace.KindCreate, OID: 3, Size: 100, NFields: -1},
		{Kind: trace.KindCreate, OID: 3, Size: 100, NFields: 1, Parent: 1, ParentField: -1},
		{Kind: trace.KindRoot, OID: heap.NilOID},
		{Kind: trace.KindRead, OID: heap.NilOID},
		{Kind: trace.KindModify, OID: heap.NilOID},
		{Kind: trace.KindWrite, OID: heap.NilOID, Field: 0, Target: 2},
		{Kind: trace.KindWrite, OID: 1, Field: -1, Target: 2},
		{Kind: 0, OID: 1},
		{Kind: 9, OID: 1},
	} {
		if bad.Validate() == nil {
			t.Fatalf("%+v: Validate accepts it; the table lists only rejected shapes", bad)
		}
		got, err := run(&bad)
		if err == nil {
			t.Errorf("%+v: Emit accepted it", bad)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: rejected (%v) but the Result changed:\n got %+v\nwant %+v", bad, err, got, want)
		}
	}
}
