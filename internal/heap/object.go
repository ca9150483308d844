// Package heap implements the simulated object database substrate used by
// the partitioned garbage collector: a physically partitioned address space
// of variable-size objects with pointer fields, bump allocation with
// placement near the parent object, on-demand database growth, and a
// reachability oracle.
//
// The heap is the "logical and physical structure of the database
// implementation being measured" from Section 4.2 of Cook, Wolf & Zorn.
// Pointers are object identifiers (OIDs) resolved through an object table,
// so relocating an object during collection does not rewrite the pages of
// objects that point to it; the paper's cost model (counted page I/Os) is
// applied by the buffer manager in package pagebuf.
//
// Inside the simulator, a resident object is named by a Slot: a dense
// index into pointer-free per-object storage, recycled when the object is
// discarded. Trace OIDs are resolved to slots once, at the event boundary;
// the collector, the oracle and the write barrier then walk from slot to
// slot, so their memory follows the resident objects rather than every
// OID a trace has ever issued.
package heap

// OID is an object identifier. OIDs are stable across relocation; the zero
// OID is the nil pointer.
type OID uint64

// NilOID is the null pointer value stored in unset pointer fields.
const NilOID OID = 0

// Slot names a resident object inside the heap: an index into the heap's
// slot storage. A slot is stable while its object is resident, including
// across Move; Discard frees it for reuse by a later Alloc.
type Slot uint32

// NilSlot is the null pointer value, and the slot of no object.
const NilSlot Slot = 0

// MaxFields is the most pointer fields one object may have. Remembered-set
// entries pack the field number into 16 bits (package remset).
const MaxFields = 1 << 16

// PartitionID identifies one physical partition of the database address
// space. Partitions are numbered densely from zero in creation order.
type PartitionID int

// NoPartition is returned when an object or address belongs to no partition.
const NoPartition PartitionID = -1

// Addr is a byte offset into the global database address space. Partition p
// owns the half-open range [p*partitionBytes, (p+1)*partitionBytes).
type Addr int64

// PageID identifies one fixed-size page of the database address space.
type PageID int64

// MaxWeight is the largest root-distance weight representable in the four
// bits the WeightedPointer policy maintains per object (Section 3.1).
const MaxWeight = 16

// slotRec is one object's metadata. It holds no Go pointers, so the slot
// storage is invisible to the Go garbage collector's scan.
type slotRec struct {
	// oid is the object's stable identity; NilOID while the slot is free.
	oid OID
	// addr is the object's current global byte offset; size its size in
	// bytes, fixed at allocation (partitions are at most 4 GiB).
	addr Addr
	size uint32
	// part is the partition holding the object, or NoPartition while the
	// slot is free.
	part int32
	// resIdx is the object's position in its partition's resident list,
	// so removal is a swap-remove.
	resIdx int32
	// fieldOff is the arena index of the object's first field; its
	// owner header sits at fieldOff-1. Unused when nfields is 0.
	fieldOff uint32
	nfields  uint32
	// outCount is how many fields hold inter-partition pointers; package
	// remset maintains it.
	outCount int32
	// mark is the stamp of the last marking pass that reached the object.
	mark uint32
	// weight is the root-distance weight in [1, MaxWeight] maintained for
	// the WeightedPointer policy (package core).
	weight uint8
	// root marks membership in the database root set.
	root bool
}
