package remset

import (
	"fmt"

	"odbgc/internal/heap"
)

// CheckInvariants verifies the table against a brute-force scan of every
// pointer field in the heap and returns the first inconsistency found,
// or nil.
//
// The invariants checked:
//
//   - every inter-partition pointer src.f → target is in the remembered
//     set of target's partition;
//   - every resident object's out-count equals its number of
//     out-of-partition fields;
//   - each partition's remembered set holds exactly as many entries as
//     the scan found, so no entry is stale.
//
// It is O(heap + table) and intended for the audit layer
// (internal/check) and tests.
func (t *Table) CheckInvariants() error {
	h := t.h
	wantIn := make([]int, max(h.NumPartitions(), len(t.in)))
	for pid := 0; pid < h.NumPartitions(); pid++ {
		srcPart := heap.PartitionID(pid)
		for _, src := range h.Partition(srcPart).Slots() {
			oid := h.OID(src)
			out := 0
			for f, target := range h.Fields(src) {
				if target == heap.NilSlot {
					continue
				}
				p := h.PartitionOf(target)
				if p == heap.NoPartition || p == srcPart {
					continue
				}
				out++
				wantIn[p]++
				ok := false
				if int(p) < len(t.in) {
					_, ok = t.in[p][packKey(oid, f)]
				}
				if !ok {
					return fmt.Errorf("remset: missing entry %d.%d into partition %d", oid, f, p)
				}
			}
			if got := int(h.OutCount(src)); got != out {
				return fmt.Errorf("remset: object %d out-count %d, heap has %d out-of-partition fields", oid, got, out)
			}
		}
	}

	for pid, in := range t.in {
		if len(in) != wantIn[pid] {
			return fmt.Errorf("remset: partition %d remembers %d pointers, heap has %d inter-partition pointers into it", pid, len(in), wantIn[pid])
		}
	}
	return nil
}
