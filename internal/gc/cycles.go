package gc

import (
	"sort"

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
// Page reads for the marking traversal are charged to the collector.
func (c *Collector) GlobalSweep() GlobalSweepResult {
	var res GlobalSweepResult

	// Mark: exact reachability, reading every live object once.
	live := c.env.Oracle.Live()
	live.ForEach(func(oid heap.OID) {
		obj := c.h.Get(oid)
		first, last := c.h.ObjectPages(obj)
		c.buf.ReadRange(pagebuf.PageID(first), pagebuf.PageID(last), pagebuf.ActorGC)
		res.LiveObjects++
		res.LiveBytes += obj.Size
	})

	// Sweep the remembered sets: purge entries whose source is dead.
	// Afterward every remaining entry has a live source, so every
	// remaining remembered-set target really is live — nepotism is
	// eliminated until new garbage forms.
	var dead []heap.OID
	for pid := 0; pid < c.h.NumPartitions(); pid++ {
		c.rem.OutSet(heap.PartitionID(pid), func(oid heap.OID) {
			if !live.Contains(oid) {
				dead = append(dead, oid)
			}
		})
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	for _, oid := range dead {
		res.DeadSources++
		res.EntriesPurged += int64(c.rem.OutCount(oid))
		c.rem.PurgeDead(oid)
		// Null the dead object's pointer fields so the heap and the
		// remembered sets stay mutually consistent. The object is
		// unreachable; nothing will ever read these fields again.
		obj := c.h.Get(oid)
		for f := range obj.Fields {
			obj.Fields[f] = heap.NilOID
		}
	}
	return res
}
