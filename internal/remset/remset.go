// Package remset maintains the inter-partition pointer bookkeeping that
// partitioned garbage collection requires (Section 4.1 of the paper):
//
//   - the remembered set of each partition P — the locations of all
//     pointers into P from objects outside P, which serve as additional
//     roots when P is collected; and
//   - the out-of-partition set of each partition P — the P-resident
//     objects holding pointers out of P, so that when such an object dies
//     its entries can be removed from the remembered sets of the
//     partitions it pointed into (otherwise later collections would
//     unnecessarily preserve objects pointed to only by garbage).
//
// Like the paper's implementation, these are auxiliary in-memory
// structures and contribute no page I/O.
//
// The write barrier is the hottest path in the simulator, so the stores are
// flat: each partition keeps its entries in a slice keyed by the packed
// location Src<<16|Field (one map lookup per mutation, no struct hashing),
// out-counts live in a column of the heap's slot storage, and the sorted
// enumerations reuse scratch buffers instead of allocating per collection.
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

// inEntry is one remembered pointer: a packed location and the target OID
// its pointer held when recorded.
type inEntry struct {
	key    uint64
	target heap.OID
}

// inSet is one partition's remembered set: an unordered slice of entries
// plus a location→slot index. Removal is a swap with the last entry.
type inSet struct {
	entries []inEntry
	pos     map[uint64]int32
}

//odbgc:hotpath
func (s *inSet) add(k uint64, target heap.OID) bool {
	if s.pos == nil {
		s.pos = make(map[uint64]int32) //odbgc:alloc-ok one-time lazy index for a partition's first entry
	}
	if _, dup := s.pos[k]; dup {
		return false
	}
	s.pos[k] = int32(len(s.entries))
	s.entries = append(s.entries, inEntry{key: k, target: target}) //odbgc:alloc-ok amortized slice growth
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
	s.pos[moved.key] = i
	s.entries = s.entries[:last]
	delete(s.pos, k)
	return true
}

// outSet is one partition's out-of-partition set: the resident slots
// holding inter-partition out-pointers, slice plus membership index.
type outSet struct {
	slots []heap.Slot
	pos   map[heap.Slot]int32
}

//odbgc:hotpath
func (s *outSet) add(x heap.Slot) {
	if s.pos == nil {
		s.pos = make(map[heap.Slot]int32) //odbgc:alloc-ok one-time lazy index for a partition's first out-pointer
	}
	s.pos[x] = int32(len(s.slots))
	s.slots = append(s.slots, x) //odbgc:alloc-ok amortized slice growth
}

//odbgc:hotpath
func (s *outSet) remove(x heap.Slot) {
	i, ok := s.pos[x]
	if !ok {
		return
	}
	last := int32(len(s.slots) - 1)
	moved := s.slots[last]
	s.slots[i] = moved
	s.pos[moved] = i
	s.slots = s.slots[:last]
	delete(s.pos, x)
}

// Table holds the remembered sets and out-of-partition sets for a heap.
type Table struct {
	h *heap.Heap
	// in[P] records each inter-partition pointer location whose value
	// points into P, with the target OID it held when recorded.
	in []inSet
	// out[P] is the set of P-resident objects with at least one
	// inter-partition out-pointer. Each object's count of such fields,
	// which keeps out-set membership precise, is the heap's out-count
	// column (heap.Heap.OutCount).
	out []outSet

	// scratch buffers for the sorted enumerations, reused per collection.
	entryScratch []inEntry
	slotScratch  []heap.Slot
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

// outAt returns the out-set of p, growing the store on demand.
//
//odbgc:hotpath
func (t *Table) outAt(p heap.PartitionID) *outSet {
	for int(p) >= len(t.out) {
		t.out = append(t.out, outSet{}) //odbgc:alloc-ok grows once per new partition, not per write
	}
	return &t.out[p]
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
			t.remove(p, src, f, srcPart)
		}
	}
	if new != heap.NilSlot {
		if p := t.h.PartitionOf(new); p != heap.NoPartition && p != srcPart {
			t.add(p, src, f, t.h.OID(new), srcPart)
		}
	}
}

//odbgc:hotpath
func (t *Table) add(target heap.PartitionID, src heap.Slot, f int, to heap.OID, srcPart heap.PartitionID) {
	if !t.inAt(target).add(packKey(t.h.OID(src), f), to) {
		panic(fmt.Sprintf("remset: duplicate entry %+v into partition %d", Entry{t.h.OID(src), f}, target)) //odbgc:alloc-ok cold panic path
	}
	if t.h.AddOutCount(src, 1) == 1 {
		t.outAt(srcPart).add(src)
	}
}

//odbgc:hotpath
func (t *Table) remove(target heap.PartitionID, src heap.Slot, f int, srcPart heap.PartitionID) {
	if !t.inAt(target).remove(packKey(t.h.OID(src), f)) {
		panic(fmt.Sprintf("remset: removing absent entry %+v from partition %d", Entry{t.h.OID(src), f}, target)) //odbgc:alloc-ok cold panic path
	}
	switch n := t.h.AddOutCount(src, -1); {
	case n < 0:
		panic(fmt.Sprintf("remset: negative out-count for %d", t.h.OID(src))) //odbgc:alloc-ok cold panic path
	case n == 0:
		t.outAt(srcPart).remove(src)
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
		t.remove(p, s, f, srcPart)
	}
	if n := t.h.OutCount(s); n != 0 {
		panic(fmt.Sprintf("remset: PurgeDead(%d) left out-count %d", t.h.OID(s), n))
	}
}

// Moved records that a (surviving) object was relocated from partition
// `from` to partition `to` during collection: its out-set membership
// follows it. Its remembered-set entries are keyed by OID and need no
// update here; Rekey handles the entries pointing *into* the collected
// partition.
func (t *Table) Moved(s heap.Slot, from, to heap.PartitionID) {
	if t.h.OutCount(s) == 0 {
		return
	}
	t.outAt(from).remove(s)
	t.outAt(to).add(s)
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
	if int(victim) < len(t.out) && len(t.out[victim].slots) != 0 {
		panic(fmt.Sprintf("remset: Rekey(%d): out-set not drained", victim))
	}
}

// RootsInto calls fn for every remembered pointer into partition p, in a
// deterministic order (sorted by source OID, then field). The target OID
// passed to fn is the pointer's recorded value.
func (t *Table) RootsInto(p heap.PartitionID, fn func(e Entry, target heap.OID)) {
	if int(p) >= len(t.in) {
		return
	}
	s := &t.in[p]
	if len(s.entries) == 0 {
		return
	}
	t.entryScratch = append(t.entryScratch[:0], s.entries...)
	slices.SortFunc(t.entryScratch, func(a, b inEntry) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		default:
			return 0
		}
	})
	for _, e := range t.entryScratch {
		fn(unpackKey(e.key), e.target)
	}
}

// Entries calls fn for every remembered pointer in the table, ordered by
// target partition, then source OID, then field — a deterministic full
// enumeration for differential tests (the sharded engine's union-of-
// remsets property check compares per-shard tables against a global one
// with it).
func (t *Table) Entries(fn func(p heap.PartitionID, e Entry, target heap.OID)) {
	for pid := range t.in {
		p := heap.PartitionID(pid)
		t.RootsInto(p, func(e Entry, target heap.OID) {
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

// OutSet calls fn for the slot of every object in partition p holding
// inter-partition out-pointers, in ascending OID order.
func (t *Table) OutSet(p heap.PartitionID, fn func(heap.Slot)) {
	if int(p) >= len(t.out) {
		return
	}
	s := &t.out[p]
	if len(s.slots) == 0 {
		return
	}
	t.slotScratch = append(t.slotScratch[:0], s.slots...)
	t.h.SortByOID(t.slotScratch)
	for _, x := range t.slotScratch {
		fn(x)
	}
}

// OutCount reports how many fields of the object in slot s hold
// inter-partition pointers.
func (t *Table) OutCount(s heap.Slot) int { return int(t.h.OutCount(s)) }

// Footprint reports the memory the table holds: the entry and out-set
// slices by capacity, their position maps by entry count.
func (t *Table) Footprint() heap.Footprint {
	const entryBytes = int64(unsafe.Sizeof(inEntry{}))
	f := heap.Footprint{
		Bytes: 4*int64(cap(t.slotScratch)) + entryBytes*int64(cap(t.entryScratch)) +
			int64(unsafe.Sizeof(inSet{}))*int64(cap(t.in)) + int64(unsafe.Sizeof(outSet{}))*int64(cap(t.out)),
	}
	for i := range t.in {
		f.Bytes += entryBytes*int64(cap(t.in[i].entries)) + 12*int64(len(t.in[i].pos))
	}
	for i := range t.out {
		f.Bytes += 4*int64(cap(t.out[i].slots)) + 8*int64(len(t.out[i].pos))
	}
	return f
}

// CorruptFirstEntryForTesting flips the recorded target OID of one
// remembered entry of partition p, returning false when p has no entries.
// It exists ONLY for fault-injection tests of the audit layer
// (internal/check), which must prove that a single flipped entry is
// detected and named; production code must never call it.
func (t *Table) CorruptFirstEntryForTesting(p heap.PartitionID) bool {
	if int(p) >= len(t.in) || len(t.in[p].entries) == 0 {
		return false
	}
	t.in[p].entries[0].target++
	return true
}

// Audit verifies the table against a brute-force scan of the heap,
// returning a description of the first inconsistency found, or "" if the
// table is exact. Tests and the invariant audit use it.
func (t *Table) Audit() string {
	type rec struct {
		target  heap.OID
		srcPart heap.PartitionID
	}
	want := make(map[heap.PartitionID]map[Entry]rec)
	wantOut := make(map[heap.PartitionID]map[heap.OID]int)
	for pid := 0; pid < t.h.NumPartitions(); pid++ {
		srcPart := heap.PartitionID(pid)
		for _, src := range t.h.Partition(srcPart).Slots() {
			for f, target := range t.h.Fields(src) {
				if target == heap.NilSlot {
					continue
				}
				p := t.h.PartitionOf(target)
				if p == heap.NoPartition || p == srcPart {
					continue
				}
				set := want[p]
				if set == nil {
					set = make(map[Entry]rec)
					want[p] = set
				}
				set[Entry{t.h.OID(src), f}] = rec{t.h.OID(target), srcPart}
				outs := wantOut[srcPart]
				if outs == nil {
					outs = make(map[heap.OID]int)
					wantOut[srcPart] = outs
				}
				outs[t.h.OID(src)]++
			}
		}
	}

	// Iterate the brute-force sets in sorted order so the first
	// inconsistency named is identical on every run (map iteration
	// order is randomized).
	wantPids := make([]heap.PartitionID, 0, len(want))
	for pid := range want {
		wantPids = append(wantPids, pid)
	}
	slices.Sort(wantPids)
	for _, pid := range wantPids {
		set := want[pid]
		keys := make([]uint64, 0, len(set))
		for e := range set {
			keys = append(keys, packKey(e.Src, e.Field))
		}
		slices.Sort(keys)
		for _, k := range keys {
			e := unpackKey(k)
			r := set[e]
			if int(pid) >= len(t.in) {
				return fmt.Sprintf("missing entry %+v into partition %d", e, pid)
			}
			i, ok := t.in[pid].pos[k]
			if !ok {
				return fmt.Sprintf("missing entry %+v into partition %d", e, pid)
			}
			if got := t.in[pid].entries[i].target; got != r.target {
				return fmt.Sprintf("entry %+v records target %d, heap has %d", e, got, r.target)
			}
		}
	}
	for pid := range t.in {
		for _, ie := range t.in[pid].entries {
			if _, ok := want[heap.PartitionID(pid)][unpackKey(ie.key)]; !ok {
				return fmt.Sprintf("stale entry %+v into partition %d", unpackKey(ie.key), pid)
			}
		}
	}
	outPids := make([]heap.PartitionID, 0, len(wantOut))
	for pid := range wantOut {
		outPids = append(outPids, pid)
	}
	slices.Sort(outPids)
	for _, pid := range outPids {
		outs := wantOut[pid]
		oids := make([]heap.OID, 0, len(outs))
		for oid := range outs {
			oids = append(oids, oid)
		}
		slices.Sort(oids)
		for _, oid := range oids {
			s, n := t.h.Lookup(oid), outs[oid]
			member := false
			if int(pid) < len(t.out) {
				_, member = t.out[pid].pos[s]
			}
			if !member {
				return fmt.Sprintf("object %d missing from out-set of partition %d", oid, pid)
			}
			if t.OutCount(s) != n {
				return fmt.Sprintf("object %d out-count %d, want %d", oid, t.OutCount(s), n)
			}
		}
	}
	for pid := range t.out {
		for _, s := range t.out[pid].slots {
			if wantOut[heap.PartitionID(pid)][t.h.OID(s)] == 0 {
				return fmt.Sprintf("stale out-set member %d in partition %d", t.h.OID(s), pid)
			}
		}
	}
	return ""
}
