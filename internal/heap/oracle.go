package heap

// Oracle computes exact reachability over the whole heap. The simulator
// uses it for the MostGarbage policy ("provided by our simulation system",
// Section 3.1) and for the metrics the paper reports: live bytes, garbage
// per partition, and unreclaimed garbage over time.
//
// Visited marks are the heap's per-slot mark stamps (Heap.BeginMark), so a
// reachability pass performs no hashing and no up-front clearing, and its
// scratch follows the resident objects, not the OIDs ever issued.
//
// An Oracle holds reusable scratch space; it is not safe for concurrent
// use, and each call invalidates the result of the previous one, as does
// any other marking pass over the same heap (a collection).
type Oracle struct {
	h     *Heap
	list  []Slot // live slots in discovery order, reused across passes
	queue []Slot

	garbage []int64 // GarbageByPartition scratch
}

// NewOracle returns an oracle over h.
func NewOracle(h *Heap) *Oracle {
	return &Oracle{h: h}
}

// LiveSet is the result of one reachability pass: a read-only view into the
// oracle's scratch space, invalidated by the next marking pass over the
// heap.
type LiveSet struct {
	h     *Heap
	epoch uint32
	slots []Slot
}

// Contains reports whether oid was reachable when the set was computed.
func (s LiveSet) Contains(oid OID) bool { return s.ContainsSlot(s.h.Lookup(oid)) }

// ContainsSlot reports whether the object in slot x was reachable when
// the set was computed.
func (s LiveSet) ContainsSlot(x Slot) bool {
	r := &s.h.slots[x]
	return r.part >= 0 && r.mark == s.epoch
}

// Len reports the number of reachable objects.
func (s LiveSet) Len() int { return len(s.slots) }

// ForEach calls fn for every reachable object's slot, in the deterministic
// order the marking pass discovered them (roots first, then depth of the
// forest).
func (s LiveSet) ForEach(fn func(Slot)) {
	for _, x := range s.slots {
		fn(x)
	}
}

// Live returns the set of objects reachable from the root set. The
// returned view is scratch space owned by the oracle and is invalidated by
// the next marking pass. With warm scratch buffers a traversal must not
// allocate (pinned by TestOracleLiveAmortizedZeroAllocs).
//
//odbgc:hotpath
func (o *Oracle) Live() LiveSet {
	h := o.h
	h.BeginMark()
	epoch := h.markEpoch
	o.list = o.list[:0]
	o.queue = o.queue[:0]
	for _, r := range h.rootList {
		if !h.Mark(r) {
			continue
		}
		o.list = append(o.list, r)   //odbgc:alloc-ok amortized scratch growth
		o.queue = append(o.queue, r) //odbgc:alloc-ok amortized scratch growth
	}
	for len(o.queue) > 0 {
		s := o.queue[len(o.queue)-1]
		o.queue = o.queue[:len(o.queue)-1]
		for _, f := range h.Fields(s) {
			if f == NilSlot {
				continue
			}
			// A field may briefly name a discarded object's freed slot
			// mid-collection; such a slot is not resident.
			c := &h.slots[f]
			if c.mark == epoch || c.part < 0 {
				continue
			}
			c.mark = epoch
			o.list = append(o.list, f)   //odbgc:alloc-ok amortized scratch growth
			o.queue = append(o.queue, f) //odbgc:alloc-ok amortized scratch growth
		}
	}
	return LiveSet{h: h, epoch: epoch, slots: o.list}
}

// LiveBytes returns the total size of all reachable objects.
func (o *Oracle) LiveBytes() int64 {
	o.Live()
	var n int64
	for _, s := range o.list {
		n += int64(o.h.slots[s].size)
	}
	return n
}

// GarbageByPartition returns, for each partition, the bytes occupied by
// unreachable objects. Index is the PartitionID. The returned slice is
// scratch space owned by the oracle and is invalidated by the next call.
func (o *Oracle) GarbageByPartition() []int64 {
	o.Live()
	if n := o.h.NumPartitions(); cap(o.garbage) < n {
		o.garbage = make([]int64, n)
	} else {
		o.garbage = o.garbage[:n]
	}
	for id := range o.garbage {
		o.garbage[id] = o.h.Partition(PartitionID(id)).Used()
	}
	for _, s := range o.list {
		r := &o.h.slots[s]
		o.garbage[r.part] -= int64(r.size)
	}
	return o.garbage
}

// UnreclaimedGarbageBytes returns the bytes occupied by unreachable objects
// across the whole heap (Figure 4's y-axis).
func (o *Oracle) UnreclaimedGarbageBytes() int64 {
	return o.h.OccupiedBytes() - o.LiveBytes()
}

// MostGarbagePartition returns the partition holding the most garbage
// bytes, excluding the reserved empty partition, along with that amount.
// Ties break toward the lowest partition ID so results are deterministic.
func (o *Oracle) MostGarbagePartition() (PartitionID, int64) {
	garbage := o.GarbageByPartition()
	best, bestAmt := NoPartition, int64(-1)
	for id, amt := range garbage {
		if PartitionID(id) == o.h.EmptyPartition() {
			continue
		}
		if amt > bestAmt {
			best, bestAmt = PartitionID(id), amt
		}
	}
	return best, bestAmt
}

// Footprint reports the memory the oracle's scratch holds.
func (o *Oracle) Footprint() Footprint {
	return Footprint{
		Bytes: 4*int64(cap(o.list)+cap(o.queue)) + 8*int64(cap(o.garbage)),
		Slots: max(cap(o.list), cap(o.queue)),
	}
}
