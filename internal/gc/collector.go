package gc

import (
	"fmt"
	"slices"

	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/pagebuf"
	"odbgc/internal/remset"
)

// Traversal selects the order in which a collection visits the victim's
// live objects — the "how to traverse objects during collection" policy
// of the paper's Table 1.
type Traversal int

const (
	// BreadthFirst copies each root's component level by level (the
	// paper's choice, preserving the database's breadth-first placement).
	BreadthFirst Traversal = iota
	// PageFirst prefers pending objects on the page most recently read
	// before falling back to breadth-first order — the traversal of
	// Matthews' Poly collector (paper §2), which minimizes how often a
	// page must be (re)read at the cost of scrambling placement.
	PageFirst
)

// String names the traversal.
func (t Traversal) String() string {
	switch t {
	case BreadthFirst:
		return "breadth-first"
	case PageFirst:
		return "page-first"
	default:
		return fmt.Sprintf("Traversal(%d)", int(t))
	}
}

// Collector is the partitioned copying collector. Each activation asks the
// policy for one victim partition, traces the victim breadth-first from
// its roots (database roots resident in it plus its remembered set),
// copies the survivors into the reserved empty partition in trace order,
// discards the garbage, and makes the victim the new empty partition.
type Collector struct {
	h         *heap.Heap
	buf       *pagebuf.Buffer
	rem       *remset.Table
	pol       core.Policy
	env       *core.Env
	stats     CollectorStats
	lifetime  CollectorStats
	traversal Traversal

	// externalRoots and onDiscard are the sharded engine's hooks; see
	// SetExternalRoots and SetOnDiscard.
	externalRoots func(victim heap.PartitionID, add func(heap.OID))
	onDiscard     func(oid heap.OID)

	// Per-evacuation scratch, reused across collections. seen is an
	// epoch-stamped visited mark per OID: seen[oid] == seenEpoch means
	// the object was enqueued (or found dead) this evacuation.
	seen      []uint32
	seenEpoch uint32
	roots     []heap.OID
	dead      []heap.OID
	queue     copyQueue
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

// SetTraversal selects the copy traversal order (default BreadthFirst).
func (c *Collector) SetTraversal(t Traversal) { c.traversal = t }

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
// about to discard, in ascending OID order, while the object's fields
// are still readable. The sharded engine uses this to retract the
// remset deltas a dying object's cross-shard pointers once sent.
func (c *Collector) SetOnDiscard(fn func(oid heap.OID)) { c.onDiscard = fn }

// Stats returns a snapshot of collector counters.
func (c *Collector) Stats() CollectorStats { return c.stats }

// Lifetime returns counters accumulated since construction, unaffected by
// ResetStats. The audit layer uses them for byte-conservation checks
// (total allocated == occupied + lifetime reclaimed), which must hold
// across warm-start measurement resets.
func (c *Collector) Lifetime() CollectorStats { return c.lifetime }

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

	// Roots: database roots resident in the victim plus the targets of
	// its remembered set, in deterministic order.
	c.seenEpoch++
	if c.seenEpoch == 0 { // uint32 wraparound: old stamps become ambiguous
		clear(c.seen)
		c.seenEpoch = 1
	}
	if n := int(c.h.OIDBound()); n > len(c.seen) {
		c.seen = append(c.seen, make([]uint32, n-len(c.seen))...)
	}
	roots := c.roots[:0]
	c.h.Roots(func(oid heap.OID) {
		if c.h.Get(oid).Partition == victim && c.seen[oid] != c.seenEpoch {
			c.seen[oid] = c.seenEpoch
			roots = append(roots, oid)
		}
	})
	slices.Sort(roots)
	c.rem.RootsInto(victim, func(_ remset.Entry, target heap.OID) {
		if c.seen[target] != c.seenEpoch {
			if obj := c.h.Get(target); obj != nil && obj.Partition == victim {
				c.seen[target] = c.seenEpoch
				roots = append(roots, target)
			}
		}
	})
	if c.externalRoots != nil {
		c.externalRoots(victim, func(target heap.OID) {
			if target < heap.OID(len(c.seen)) && c.seen[target] != c.seenEpoch {
				if obj := c.h.Get(target); obj != nil && obj.Partition == victim {
					c.seen[target] = c.seenEpoch
					roots = append(roots, target)
				}
			}
		})
	}
	c.roots = roots

	// Iterate over the roots one at a time (as the paper does), copying
	// each root's component before moving to the next. Under the default
	// breadth-first traversal, component-at-a-time order keeps each
	// tree's objects contiguous in the destination partition, preserving
	// the database's breadth-first placement; interleaving all roots
	// level-by-level would scramble it. Under the page-first extension,
	// pending objects on the page just read are preferred, minimizing
	// page re-reads. Pointers leaving the victim are not traversed.
	q := &c.queue
	q.reset(c.traversal)
	for _, root := range roots {
		if c.h.Get(root).Partition != victim {
			continue // already copied as part of an earlier component
		}
		q.push(root, c.pageOf(root))
		for {
			oid, ok := q.pop()
			if !ok {
				break
			}
			obj := c.h.Get(oid)
			oldFirst, oldLast := c.h.ObjectPages(obj)
			q.setCurrentPage(oldFirst)
			c.buf.ReadRange(pagebuf.PageID(oldFirst), pagebuf.PageID(oldLast), pagebuf.ActorGC)
			c.h.Move(oid, dest)
			c.rem.Moved(oid, victim, dest)
			newFirst, newLast := c.h.ObjectPages(obj)
			c.buf.WriteRange(pagebuf.PageID(newFirst), pagebuf.PageID(newLast), pagebuf.ActorGC)
			res.CopiedBytes += obj.Size
			res.CopiedObjects++
			for _, f := range obj.Fields {
				if f == heap.NilOID || c.seen[f] == c.seenEpoch {
					continue
				}
				child := c.h.Get(f)
				if child == nil || child.Partition != victim {
					continue
				}
				c.seen[f] = c.seenEpoch
				q.push(f, c.pageOf(f))
			}
		}
	}

	// Everything still resident in the victim is garbage. Dead objects'
	// inter-partition pointers are removed from the remembered sets they
	// appear in, so later collections do not preserve objects reachable
	// only from this garbage. Discarding performs no I/O: a copying
	// collector never touches dead objects.
	dead := c.dead[:0]
	c.h.Partition(victim).Objects(func(oid heap.OID) { dead = append(dead, oid) })
	slices.Sort(dead)
	c.dead = dead
	for _, oid := range dead {
		res.ReclaimedBytes += c.h.Get(oid).Size
		res.ReclaimedObjects++
		if c.onDiscard != nil {
			c.onDiscard(oid)
		}
		c.rem.PurgeDeadEvacuating(oid, dest)
		c.h.Discard(oid)
	}

	c.h.ResetPartition(victim)
	c.rem.Rekey(victim, dest)
	c.h.SetEmptyPartition(victim)

	c.stats.add(res)
	c.lifetime.add(res)
	return res
}

// pageOf returns the first page of an object's current location.
func (c *Collector) pageOf(oid heap.OID) heap.PageID {
	first, _ := c.h.ObjectPages(c.h.Get(oid))
	return first
}

// copyQueue orders the copy pass. In BreadthFirst mode it is a plain
// FIFO. In PageFirst mode it additionally indexes pending objects by the
// page they currently live on, and pop prefers an object on the page most
// recently read; entries popped through the page index are skipped lazily
// when their FIFO slots surface. The queue is scratch space reused across
// collections; reset reinitializes it for one evacuation.
type copyQueue struct {
	mode    Traversal
	fifo    []heap.OID
	head    int
	byPage  map[heap.PageID][]heap.OID
	curPage heap.PageID
	popped  map[heap.OID]bool
}

func (q *copyQueue) reset(mode Traversal) {
	q.mode = mode
	q.fifo = q.fifo[:0]
	q.head = 0
	q.curPage = -1
	if mode == PageFirst {
		if q.byPage == nil {
			q.byPage = make(map[heap.PageID][]heap.OID)
			q.popped = make(map[heap.OID]bool)
		} else {
			clear(q.byPage)
			clear(q.popped)
		}
	}
}

// push enqueues an object (enqueued at most once by the caller's seen
// set); page is its current first page.
func (q *copyQueue) push(oid heap.OID, page heap.PageID) {
	q.fifo = append(q.fifo, oid)
	if q.mode == PageFirst {
		q.byPage[page] = append(q.byPage[page], oid)
	}
}

// setCurrentPage records the page just read, steering PageFirst pops.
func (q *copyQueue) setCurrentPage(p heap.PageID) { q.curPage = p }

// pop dequeues the next object to copy.
func (q *copyQueue) pop() (heap.OID, bool) {
	if q.mode == PageFirst {
		for list := q.byPage[q.curPage]; len(list) > 0; list = q.byPage[q.curPage] {
			oid := list[len(list)-1]
			q.byPage[q.curPage] = list[:len(list)-1]
			if !q.popped[oid] {
				q.popped[oid] = true
				return oid, true
			}
		}
	}
	for q.head < len(q.fifo) {
		oid := q.fifo[q.head]
		q.head++
		if q.mode == PageFirst {
			if q.popped[oid] {
				continue
			}
			q.popped[oid] = true
		}
		return oid, true
	}
	return heap.NilOID, false
}
