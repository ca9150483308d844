package gc

import (
	"odbgc/internal/heap"
	"odbgc/internal/pagebuf"
)

// Distributed cyclic garbage (Section 6.5): a dead cycle spanning
// partitions survives partitioned collection forever, because each half
// appears in the other's remembered set and remembered-set entries are
// collection roots. The paper leaves handling it to future work and
// observes that even modest connectivity produces significant amounts of
// such garbage through nepotism.
//
// GlobalSweep implements the classic remedy: an occasional global marking
// pass. It computes exact reachability over the whole database (reading
// every live object's pages — this is the expensive part) and then purges
// every remembered-set entry whose source object is unreachable. It frees
// no space itself; it breaks the nepotism links so that ordinary
// per-partition collections can reclaim the cycles afterwards.

// GlobalSweepResult summarizes one global marking pass.
type GlobalSweepResult struct {
	// LiveObjects and LiveBytes are the mark phase's findings.
	LiveObjects int64
	LiveBytes   int64
	// DeadSources is the number of unreachable objects whose
	// remembered-set entries were purged; EntriesPurged counts the
	// entries removed.
	DeadSources   int64
	EntriesPurged int64
}

// GlobalSweep performs one global mark pass and remembered-set cleanup.
// Page reads for the marking traversal are charged to the collector. The
// dead sources it purges, in ascending OID order, are the residents with a
// positive out-count (heap.Heap.OutCount) that the mark did not reach.
func (c *Collector) GlobalSweep() GlobalSweepResult {
	var res GlobalSweepResult

	// Mark: exact reachability, reading every live object once.
	live := c.env.Oracle.Live()
	live.ForEach(func(s heap.Slot) {
		first, last := c.h.Pages(s)
		c.buf.ReadRange(pagebuf.PageID(first), pagebuf.PageID(last), pagebuf.ActorGC)
		res.LiveObjects++
		res.LiveBytes += c.h.Size(s)
	})

	// Sweep the remembered sets: purge entries whose source is dead. The
	// residents with a positive out-count are the paper's out-of-partition
	// sets. Afterward every remaining entry has a live source, so every
	// remaining remembered-set target really is live — nepotism is
	// eliminated until new garbage forms.
	var dead []heap.Slot
	for pid := 0; pid < c.h.NumPartitions(); pid++ {
		for _, s := range c.h.Partition(heap.PartitionID(pid)).Slots() {
			if c.h.OutCount(s) > 0 && !live.ContainsSlot(s) {
				dead = append(dead, s)
			}
		}
	}
	c.h.SortByOID(dead)
	for _, s := range dead {
		res.DeadSources++
		res.EntriesPurged += int64(c.h.OutCount(s))
		c.rem.PurgeDead(s)
		// Null the dead object's pointer fields so the heap and the
		// remembered sets stay mutually consistent. The object is
		// unreachable; nothing will ever read these fields again.
		c.h.ClearFields(s)
	}
	return res
}
