package gc

import (
	"fmt"

	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/pagebuf"
	"odbgc/internal/remset"
)

// Collector is the partitioned copying collector. Each activation asks the
// policy for one victim partition, traces the victim breadth-first from
// its roots (database roots resident in it plus its remembered set),
// copies the survivors into the reserved empty partition in trace order,
// discards the garbage, and makes the victim the new empty partition.
type Collector struct {
	h        *heap.Heap
	buf      *pagebuf.Buffer
	rem      *remset.Table
	pol      core.Policy
	env      *core.Env
	stats    CollectorStats
	lifetime CollectorStats

	// externalRoots and onDiscard are the sharded engine's hooks; see
	// SetExternalRoots and SetOnDiscard.
	externalRoots func(victim heap.PartitionID, add func(heap.OID))
	onDiscard     func(oid heap.OID)

	// Per-evacuation scratch, reused across collections. The visited
	// marks are the heap's own mark stamps (heap.Heap.Mark), so the
	// scratch follows the victim's resident objects.
	roots []heap.Slot
	dead  []heap.Slot
	queue []heap.Slot
}

// CollectorStats aggregates collection activity.
type CollectorStats struct {
	// Collections is the number of activations that evacuated a partition.
	Collections int64
	// Declined counts activations where the policy chose not to collect.
	Declined int64
	// ReclaimedBytes and ReclaimedObjects total the garbage reclaimed.
	ReclaimedBytes   int64
	ReclaimedObjects int64
	// CopiedBytes and CopiedObjects total the survivors evacuated.
	CopiedBytes   int64
	CopiedObjects int64
}

// add accumulates one evacuation's totals into the counters.
func (s *CollectorStats) add(res CollectionResult) {
	s.Collections++
	s.ReclaimedBytes += res.ReclaimedBytes
	s.ReclaimedObjects += res.ReclaimedObjects
	s.CopiedBytes += res.CopiedBytes
	s.CopiedObjects += res.CopiedObjects
}

// CollectionResult describes one activation.
type CollectionResult struct {
	// Collected is false when the policy declined (NoCollection).
	Collected bool
	// Victim is the evacuated partition; Dest the partition that received
	// the survivors.
	Victim, Dest heap.PartitionID
	// ReclaimedBytes/Objects is the garbage discarded; CopiedBytes/Objects
	// the survivors moved.
	ReclaimedBytes   int64
	ReclaimedObjects int64
	CopiedBytes      int64
	CopiedObjects    int64
}

// NewCollector wires a collector over the given substrates. env supplies
// the selection environment (oracle and random source) to the policy.
func NewCollector(h *heap.Heap, buf *pagebuf.Buffer, rem *remset.Table, pol core.Policy, env *core.Env) *Collector {
	return &Collector{h: h, buf: buf, rem: rem, pol: pol, env: env}
}

// SetExternalRoots registers an additional root source consulted by every
// evacuation: fn receives the victim partition and must pass each
// externally referenced OID to add, in a deterministic order. OIDs that
// are not resident in the victim (including ones already discarded) are
// ignored, exactly as remembered-set targets are. The sharded engine
// (internal/shard) uses this to keep objects referenced from other
// shards alive — the cross-shard analogue of a remembered set keeping a
// cross-partition referent alive.
func (c *Collector) SetExternalRoots(fn func(victim heap.PartitionID, add func(heap.OID))) {
	c.externalRoots = fn
}

// SetOnDiscard registers fn to run for each object an evacuation is
// about to discard, while the object's fields are still readable. The
// objects come in the victim's resident-list order, which is
// deterministic but not sorted. The sharded engine uses this to retract
// the remset deltas a dying object's cross-shard pointers once sent; the
// receivers only count those deltas, so their order does not matter.
func (c *Collector) SetOnDiscard(fn func(oid heap.OID)) { c.onDiscard = fn }

// Stats returns a snapshot of collector counters.
func (c *Collector) Stats() CollectorStats { return c.stats }

// Lifetime returns counters accumulated since construction, unaffected by
// ResetStats. The audit layer uses them for byte-conservation checks
// (total allocated == occupied + lifetime reclaimed), which must hold
// across warm-start measurement resets.
func (c *Collector) Lifetime() CollectorStats { return c.lifetime }

// Footprint reports the memory the collector's evacuation scratch holds.
func (c *Collector) Footprint() heap.Footprint {
	return heap.Footprint{
		Bytes: 4 * int64(cap(c.roots)+cap(c.dead)+cap(c.queue)),
		Slots: max(cap(c.roots), cap(c.dead), cap(c.queue)),
	}
}

// ResetStats zeroes the collector counters (warm-start measurement).
func (c *Collector) ResetStats() { c.stats = CollectorStats{} }

// Collect performs one activation: policy selection followed by evacuation
// of the chosen partition.
func (c *Collector) Collect() CollectionResult {
	victim, ok := c.pol.Select(c.env)
	if !ok {
		c.stats.Declined++
		c.lifetime.Declined++
		return CollectionResult{}
	}
	if victim == c.h.EmptyPartition() {
		panic(fmt.Sprintf("gc: policy %s selected the reserved empty partition", c.pol.Name())) //odbgc:alloc-ok panic path
	}
	res := c.evacuate(victim)
	c.pol.Collected(victim, res.Dest)
	return res
}

// evacuate copies the victim partition's live objects into the empty
// partition and reclaims the rest. The copy is a single Cheney-style
// breadth-first pass: each live object is read from its old location,
// moved, written to its new location, and scanned for victim-resident
// children, all before the next object — one read and one write of each
// live page, which is what keeps collector I/O near the size of the live
// data rather than a multiple of it.
func (c *Collector) evacuate(victim heap.PartitionID) CollectionResult {
	dest := c.h.EmptyPartition()
	if dest == heap.NoPartition {
		panic("gc: evacuate without a reserved empty partition") //odbgc:alloc-ok panic path
	}
	if dest == victim {
		panic("gc: evacuate of the empty partition") //odbgc:alloc-ok panic path
	}
	res := CollectionResult{Collected: true, Victim: victim, Dest: dest}
	h := c.h

	// Roots: database roots resident in the victim, found by scanning
	// its resident list for the root bit, plus the targets of its
	// remembered set, in deterministic order. A mark means the object
	// was enqueued this evacuation.
	h.BeginMark()
	roots := c.roots[:0]
	for _, s := range h.Partition(victim).Slots() {
		if h.IsRoot(s) {
			h.Mark(s)
			roots = append(roots, s)
		}
	}
	h.SortByOID(roots)
	c.rem.RootsInto(victim, func(_ remset.Entry, target heap.OID) {
		if s := h.Lookup(target); h.PartitionOf(s) == victim && h.Mark(s) {
			roots = append(roots, s)
		}
	})
	if c.externalRoots != nil {
		c.externalRoots(victim, func(target heap.OID) {
			if s := h.Lookup(target); h.PartitionOf(s) == victim && h.Mark(s) {
				roots = append(roots, s)
			}
		})
	}
	c.roots = roots

	// Iterate over the roots one at a time (as the paper does), copying
	// each root's component breadth-first before moving to the next.
	// Component-at-a-time order keeps each tree's objects contiguous in
	// the destination partition, preserving the database's breadth-first
	// placement; interleaving all roots level-by-level would scramble it.
	// The queue is a FIFO; pointers leaving the victim are not traversed.
	queue := c.queue
	for _, root := range roots {
		if h.PartitionOf(root) != victim {
			continue // already copied as part of an earlier component
		}
		queue = append(queue[:0], root)
		for head := 0; head < len(queue); head++ {
			s := queue[head]
			oldFirst, oldLast := h.Pages(s)
			c.buf.ReadRange(pagebuf.PageID(oldFirst), pagebuf.PageID(oldLast), pagebuf.ActorGC)
			h.Move(s, dest)
			newFirst, newLast := h.Pages(s)
			c.buf.WriteRange(pagebuf.PageID(newFirst), pagebuf.PageID(newLast), pagebuf.ActorGC)
			res.CopiedBytes += h.Size(s)
			res.CopiedObjects++
			for _, f := range h.Fields(s) {
				if f == heap.NilSlot || h.PartitionOf(f) != victim || !h.Mark(f) {
					continue
				}
				queue = append(queue, f)
			}
		}
	}
	c.queue = queue

	// Everything still resident in the victim is garbage. Dead objects'
	// inter-partition pointers are removed from the remembered sets they
	// appear in, so later collections do not preserve objects reachable
	// only from this garbage. Discarding performs no I/O: a copying
	// collector never touches dead objects. The dead are discarded in
	// resident-list order, unsorted; no result depends on it. RootsInto
	// sorts the remembered sets the purges change, the order of the freed
	// slots only renumbers later objects, and onDiscard's deltas are
	// counts.
	dead := append(c.dead[:0], h.Partition(victim).Slots()...)
	c.dead = dead
	for _, s := range dead {
		res.ReclaimedBytes += h.Size(s)
		res.ReclaimedObjects++
		if c.onDiscard != nil {
			c.onDiscard(h.OID(s))
		}
		c.rem.PurgeDeadEvacuating(s, dest)
		h.Discard(s)
	}

	h.ResetPartition(victim)
	c.rem.Rekey(victim, dest)
	h.SetEmptyPartition(victim)

	c.stats.add(res)
	c.lifetime.add(res)
	return res
}
