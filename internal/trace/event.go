// Package trace defines the application event stream that drives the
// simulation ("trace-driven simulation", Section 4.2) and its one
// encoding: per event, a uvarint carrying the kind and the delta of the
// event's OID from the previous event's, then uvarint operands
// (codec.go). Buffer holds that encoding in memory for cached replay,
// and the chunked file (ChunkWriter, ChunkReader, ChunkStream) holds it
// on disk, CRC-guarded and closed by an end segment, for streamed
// replay; both replay through the same zero-alloc decode loop.
//
// A trace records what the application did — object creations, visits,
// data modifications, and pointer stores — and nothing about how the
// database lays objects out or collects garbage; those are simulator
// policies. This is what lets the same trace evaluate every partition
// selection policy under identical application behavior.
package trace

import (
	"fmt"

	"odbgc/internal/heap"
)

// Kind discriminates application events.
type Kind uint8

const (
	// KindCreate allocates a new object and, when Parent is non-nil,
	// stores the new OID into Parent's ParentField (the creating pointer
	// store). Parent also serves as the placement hint: the database
	// tries to put the new object near it.
	KindCreate Kind = iota + 1
	// KindRoot marks a previously created object as a member of the
	// database root set.
	KindRoot
	// KindRead visits an object, reading all of its pages.
	KindRead
	// KindWrite stores Target (possibly nil) into field Field of object
	// OID. Overwriting a non-nil pointer is how the application creates
	// garbage and what advances the collection trigger.
	KindWrite
	// KindModify overwrites non-pointer data in an object: a pure data
	// mutation that cannot create garbage. It exists so the unenhanced
	// Yong/Naughton/Yu selection policy (which counts all mutations) can
	// be evaluated against the paper's pointer-only enhancement.
	KindModify
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindCreate:
		return "create"
	case KindRoot:
		return "root"
	case KindRead:
		return "read"
	case KindWrite:
		return "write"
	case KindModify:
		return "modify"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one application event. Which fields are meaningful depends on
// Kind; unused fields are zero.
type Event struct {
	Kind Kind
	// OID is the object created, rooted, read, written, or modified.
	OID heap.OID
	// Size is the new object's size in bytes (KindCreate).
	Size int64
	// NFields is the new object's pointer-slot count (KindCreate).
	NFields int
	// Parent is the placement hint and creating-store source (KindCreate);
	// NilOID means a free-standing allocation.
	Parent heap.OID
	// ParentField is the field of Parent that receives the new OID
	// (KindCreate with non-nil Parent).
	ParentField int
	// Field is the stored-into field index (KindWrite).
	Field int
	// Target is the stored pointer value, possibly NilOID (KindWrite).
	Target heap.OID
}

// Validate reports whether the event is structurally well formed.
func (e Event) Validate() error {
	switch e.Kind {
	case KindCreate:
		if e.OID == heap.NilOID {
			return fmt.Errorf("trace: create with nil OID")
		}
		if e.Size <= 0 {
			return fmt.Errorf("trace: create %d with size %d", e.OID, e.Size)
		}
		if e.NFields < 0 {
			return fmt.Errorf("trace: create %d with %d fields", e.OID, e.NFields)
		}
		if e.Parent != heap.NilOID && e.ParentField < 0 {
			return fmt.Errorf("trace: create %d with negative parent field", e.OID)
		}
	case KindRoot, KindRead, KindModify:
		if e.OID == heap.NilOID {
			return fmt.Errorf("trace: %s with nil OID", e.Kind)
		}
	case KindWrite:
		if e.OID == heap.NilOID {
			return fmt.Errorf("trace: write with nil source")
		}
		if e.Field < 0 {
			return fmt.Errorf("trace: write to negative field %d", e.Field)
		}
	default:
		return fmt.Errorf("trace: unknown kind %d", e.Kind)
	}
	return nil
}

// Sink consumes a stream of events. Buffer, ChunkWriter, and the
// simulator all implement Sink, so the workload generator can stream into
// any of them.
type Sink interface {
	Emit(Event) error
}
