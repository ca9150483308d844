// Package remset maintains the inter-partition pointer bookkeeping that
// partitioned garbage collection requires (Section 4.1 of the paper):
//
//   - the remembered set of each partition P — the locations of all
//     pointers into P from objects outside P, which serve as additional
//     roots when P is collected; and
//   - each object's out-count — how many of its fields point out of its
//     partition, a column of the heap's slot storage
//     (heap.Heap.OutCount). The paper's out-of-partition set of P is P's
//     residents with a positive out-count: when such an object dies its
//     entries are removed from the remembered sets of the partitions it
//     pointed into (otherwise later collections would unnecessarily
//     preserve objects pointed to only by garbage), and an object whose
//     out-count is zero has none to remove.
//
// Like the paper's implementation, these are auxiliary in-memory
// structures and contribute no page I/O.
//
// An entry is only a location, never a copy of the pointer: the source
// object's field holds the target, and RootsInto reads it from there.
// The write barrier is the hottest path in the simulator, so the stores are
// flat: each partition keeps its entries in a slice of packed locations
// Src<<16|Field (one map lookup per mutation, no struct hashing), the
// out-count moves in place in the slot record, and the sorted enumeration
// reuses a scratch buffer instead of allocating per collection.
package remset

import (
	"fmt"
	"slices"
	"unsafe"

	"odbgc/internal/heap"
)

// Entry names one pointer location: field Field of object Src.
type Entry struct {
	Src   heap.OID
	Field int
}

// fieldBits is the width of the field number in a packed entry key.
const fieldBits = 16

// The heap rejects objects with more fields than a packed key can name.
const _ = uint(1<<fieldBits - heap.MaxFields)

// packKey packs a pointer location into one comparable word. Sorting packed
// keys ascending is exactly "by Src, then Field" — the deterministic order
// RootsInto promises.
func packKey(src heap.OID, f int) uint64 {
	if uint64(f) >= 1<<fieldBits {
		panic(fmt.Sprintf("remset: field %d overflows the packed entry key", f)) //odbgc:alloc-ok panic path
	}
	if uint64(src) >= 1<<(64-fieldBits) {
		panic(fmt.Sprintf("remset: OID %d overflows the packed entry key", src)) //odbgc:alloc-ok panic path
	}
	return uint64(src)<<fieldBits | uint64(f)
}

func unpackKey(k uint64) Entry {
	return Entry{Src: heap.OID(k >> fieldBits), Field: int(k & (1<<fieldBits - 1))}
}

// inSet is one partition's remembered set: an unordered slice of packed
// locations plus a location→position index. Removal is a swap with the
// last entry.
type inSet struct {
	entries []uint64
	pos     map[uint64]int32
}

//odbgc:hotpath
func (s *inSet) add(k uint64) bool {
	if s.pos == nil {
		s.pos = make(map[uint64]int32) //odbgc:alloc-ok one-time lazy index for a partition's first entry
	}
	if _, dup := s.pos[k]; dup {
		return false
	}
	s.pos[k] = int32(len(s.entries))
	s.entries = append(s.entries, k) //odbgc:alloc-ok amortized slice growth
	return true
}

//odbgc:hotpath
func (s *inSet) remove(k uint64) bool {
	i, ok := s.pos[k]
	if !ok {
		return false
	}
	last := int32(len(s.entries) - 1)
	moved := s.entries[last]
	s.entries[i] = moved
	s.pos[moved] = i
	s.entries = s.entries[:last]
	delete(s.pos, k)
	return true
}

// Table holds the remembered sets for a heap, and keeps the heap's
// out-count column in step with them: an object's out-count is its number
// of entries across all the remembered sets.
type Table struct {
	h *heap.Heap
	// in[P] records each inter-partition pointer location whose value
	// points into P.
	in []inSet

	// keyScratch is RootsInto's sort buffer, reused per collection.
	keyScratch []uint64
}

// New returns an empty table over h.
func New(h *heap.Heap) *Table {
	return &Table{h: h}
}

// inAt returns the remembered set of p, growing the store on demand.
//
//odbgc:hotpath
func (t *Table) inAt(p heap.PartitionID) *inSet {
	for int(p) >= len(t.in) {
		t.in = append(t.in, inSet{}) //odbgc:alloc-ok grows once per new partition, not per write
	}
	return &t.in[p]
}

// PointerWrite records the effect of storing new into field f of the
// object in slot src, whose previous value was old. It must be called at
// the write barrier for every pointer store, after the heap mutation.
// Either value may be NilSlot. It runs at every simulated pointer store,
// so the steady-state path must not allocate (pinned by
// TestPointerWriteZeroAllocs).
//
//odbgc:hotpath
func (t *Table) PointerWrite(src heap.Slot, f int, old, new heap.Slot) {
	srcPart := t.h.PartitionOf(src)
	if old != heap.NilSlot {
		if p := t.h.PartitionOf(old); p != heap.NoPartition && p != srcPart {
			t.remove(p, src, f)
		}
	}
	if new != heap.NilSlot {
		if p := t.h.PartitionOf(new); p != heap.NoPartition && p != srcPart {
			t.add(p, src, f)
		}
	}
}

//odbgc:hotpath
func (t *Table) add(target heap.PartitionID, src heap.Slot, f int) {
	if !t.inAt(target).add(packKey(t.h.OID(src), f)) {
		panic(fmt.Sprintf("remset: duplicate entry %+v into partition %d", Entry{t.h.OID(src), f}, target)) //odbgc:alloc-ok cold panic path
	}
	t.h.AddOutCount(src, 1)
}

//odbgc:hotpath
func (t *Table) remove(target heap.PartitionID, src heap.Slot, f int) {
	if !t.inAt(target).remove(packKey(t.h.OID(src), f)) {
		panic(fmt.Sprintf("remset: removing absent entry %+v from partition %d", Entry{t.h.OID(src), f}, target)) //odbgc:alloc-ok cold panic path
	}
	if t.h.AddOutCount(src, -1) < 0 {
		panic(fmt.Sprintf("remset: negative out-count for %d", t.h.OID(src))) //odbgc:alloc-ok cold panic path
	}
}

// PurgeDead removes every remembered-set entry whose source is the object
// in slot s, which the collector has determined to be garbage. It must run
// while the object's fields are still intact, before heap.Discard.
func (t *Table) PurgeDead(s heap.Slot) { t.PurgeDeadEvacuating(s, heap.NoPartition) }

// PurgeDeadEvacuating is PurgeDead during an evacuation of the dead
// object's partition into dest: pointers from the dead object to objects
// already moved into dest were intra-partition before the move (dest was
// empty), so they have no remembered-set entries and are skipped.
func (t *Table) PurgeDeadEvacuating(s heap.Slot, dest heap.PartitionID) {
	srcPart := t.h.PartitionOf(s)
	if srcPart == heap.NoPartition {
		panic(fmt.Sprintf("remset: PurgeDead(slot %d): no such object", s))
	}
	if t.h.OutCount(s) == 0 {
		return
	}
	for f, target := range t.h.Fields(s) {
		if target == heap.NilSlot {
			continue
		}
		// A target discarded earlier in the same evacuation has a free
		// slot (NoPartition); it was intra-partition.
		p := t.h.PartitionOf(target)
		if p == heap.NoPartition || p == srcPart {
			continue
		}
		if dest != heap.NoPartition && p == dest {
			continue // was intra-partition before the target moved
		}
		t.remove(p, s, f)
	}
	if n := t.h.OutCount(s); n != 0 {
		panic(fmt.Sprintf("remset: PurgeDead(%d) left out-count %d", t.h.OID(s), n))
	}
}

// Rekey transfers the remembered set of an evacuated partition to the
// destination partition: every recorded pointer into victim now points
// into dest, because every remembered-set target is a collection root and
// was therefore copied. It panics if dest already has entries of its own,
// which would mean dest was not empty.
func (t *Table) Rekey(victim, dest heap.PartitionID) {
	t.inAt(victim) // ensure both stores exist
	d := t.inAt(dest)
	if len(d.entries) != 0 {
		panic(fmt.Sprintf("remset: Rekey into non-empty partition %d", dest))
	}
	v := &t.in[victim]
	// Swap the sets so the victim keeps dest's (empty) buffers for reuse.
	*d, *v = *v, *d
}

// RootsInto calls fn for every remembered pointer into partition p, in a
// deterministic order (sorted by source OID, then field), with the slot
// the source's field holds.
func (t *Table) RootsInto(p heap.PartitionID, fn func(e Entry, target heap.Slot)) {
	if int(p) >= len(t.in) {
		return
	}
	s := &t.in[p]
	if len(s.entries) == 0 {
		return
	}
	t.keyScratch = append(t.keyScratch[:0], s.entries...)
	slices.Sort(t.keyScratch)
	for _, k := range t.keyScratch {
		e := unpackKey(k)
		fn(e, t.h.Fields(t.h.Lookup(e.Src))[e.Field])
	}
}

// Entries calls fn for every remembered pointer in the table, ordered by
// target partition, then source OID, then field — a deterministic full
// enumeration for differential tests (the sharded engine's union-of-
// remsets property check compares per-shard tables against a global one
// with it).
func (t *Table) Entries(fn func(p heap.PartitionID, e Entry, target heap.Slot)) {
	for pid := range t.in {
		p := heap.PartitionID(pid)
		t.RootsInto(p, func(e Entry, target heap.Slot) {
			fn(p, e, target)
		})
	}
}

// InCount reports the number of remembered pointers into partition p.
func (t *Table) InCount(p heap.PartitionID) int {
	if int(p) >= len(t.in) {
		return 0
	}
	return len(t.in[p].entries)
}

// Footprint reports the memory the table holds: the entry slices by
// capacity, their position maps by entry count.
func (t *Table) Footprint() heap.Footprint {
	f := heap.Footprint{
		Bytes: 8*int64(cap(t.keyScratch)) + int64(unsafe.Sizeof(inSet{}))*int64(cap(t.in)),
	}
	for i := range t.in {
		f.Bytes += 8*int64(cap(t.in[i].entries)) + 12*int64(len(t.in[i].pos))
	}
	return f
}

// CorruptFirstEntryForTesting moves the first remembered entry of
// partition p into the remembered set of partition p+1, as a write
// barrier that filed a pointer under the wrong target partition would,
// and returns false when p has no entries. It exists ONLY for
// fault-injection tests of the audit layer (internal/check), which must
// prove that a single moved entry is detected and named; production code
// must never call it.
func (t *Table) CorruptFirstEntryForTesting(p heap.PartitionID) bool {
	if int(p) >= len(t.in) || len(t.in[p].entries) == 0 {
		return false
	}
	k := t.in[p].entries[0]
	t.in[p].remove(k)
	t.inAt(p + 1).add(k)
	return true
}
