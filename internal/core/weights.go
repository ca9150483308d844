package core

import "odbgc/internal/heap"

// Weight maintenance for the WeightedPointer policy (Section 3.1): every
// object carries 4 bits of weight, defined as one plus the minimum weight
// of the objects pointing to it, capped at MaxWeight. Objects pointed to
// directly by the root set have weight 1. Weights only decrease (a new
// lower-weight edge propagates transitively); edge deletion does not raise
// them — the weight is a heuristic distance, not an exact one.
//
// Like the paper, weight maintenance is metadata bookkeeping piggybacked
// on stores the application performs anyway; it contributes no page I/O in
// the simulation's cost model. The simulator maintains weights under every
// policy so that runs differ only in partition selection.

// PropagateStore updates weights after the pointer store src→target (both
// slots): if reaching target through src gives it a smaller weight, the
// improvement is applied and propagated breadth-first through target's
// out-edges.
func PropagateStore(h *heap.Heap, src, target heap.Slot) {
	if target == heap.NilSlot || !h.Resident(src) || !h.Resident(target) {
		return
	}
	w := h.Weight(src)
	if w >= heap.MaxWeight {
		return // cannot improve anything below the cap
	}
	relax(h, target, w+1)
}

// PropagateRoot gives a newly rooted object weight 1 and propagates.
func PropagateRoot(h *heap.Heap, s heap.Slot) {
	if h.Resident(s) {
		relax(h, s, 1)
	}
}

// relax lowers the weight of the object in slot s to at most w and
// propagates the improvement.
func relax(h *heap.Heap, s heap.Slot, w uint8) {
	if w >= h.Weight(s) {
		return
	}
	h.SetWeight(s, w)
	queue := []heap.Slot{s}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		next := h.Weight(cur) + 1
		if next > heap.MaxWeight {
			continue
		}
		for _, f := range h.Fields(cur) {
			if f == heap.NilSlot || !h.Resident(f) || h.Weight(f) <= next {
				continue
			}
			h.SetWeight(f, next)
			queue = append(queue, f)
		}
	}
}
