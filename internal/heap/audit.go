package heap

import (
	"fmt"
	"sort"
)

// CheckInvariants verifies the heap's internal structural invariants —
// the agreements between the OID index, the slot storage and its free
// list, the per-partition field arenas and resident lists, the
// incremental byte accounting, and the max-free partition index — and
// returns a description of the first violation found, or nil.
//
// The hot paths maintain all of these incrementally (no structure is ever
// rebuilt), so this brute-force reconciliation is the only check that the
// dense bookkeeping has not drifted from the ground truth. It is O(heap)
// and intended for the audit layer (internal/check) and tests, not for
// steady-state runs.
func (h *Heap) CheckInvariants() error {
	partBytes := h.cfg.PartitionBytes()
	if len(h.slots) == 0 || h.slots[NilSlot].oid != NilOID || h.PartitionOf(NilSlot) != NoPartition {
		return fmt.Errorf("heap: slot 0 is not the free NilSlot sentinel")
	}

	// Partition-level accounting, resident-list back-indices and field
	// arenas.
	if len(h.fields) != len(h.parts) {
		return fmt.Errorf("heap: %d field arenas for %d partitions", len(h.fields), len(h.parts))
	}
	var sumUsed int64
	resident, liveFields := 0, 0
	addrScratch := make([]Slot, 0, 64)
	for _, p := range h.parts {
		if p.used < 0 || p.used > partBytes {
			return fmt.Errorf("heap: partition %d used %d outside [0,%d]", p.ID, p.used, partBytes)
		}
		fs := h.fields[p.ID]
		if p.used == 0 && len(fs) != 0 {
			return fmt.Errorf("heap: empty partition %d holds %d field words", p.ID, len(fs))
		}
		sumUsed += p.used
		var sumSizes int64
		addrScratch = addrScratch[:0]
		for pos, s := range p.resident {
			if int(s) >= len(h.slots) || !h.Resident(s) {
				return fmt.Errorf("heap: partition %d lists free slot %d", p.ID, s)
			}
			r := &h.slots[s]
			if h.PartitionOf(s) != p.ID {
				return fmt.Errorf("heap: object %d listed in partition %d but records partition %d", r.oid, p.ID, r.part)
			}
			if int(r.resIdx) != pos {
				return fmt.Errorf("heap: object %d resident back-index %d, actual position %d in partition %d", r.oid, r.resIdx, pos, p.ID)
			}
			if end := r.addr + Addr(r.size); r.addr < p.Base || end > p.Base+Addr(p.used) {
				return fmt.Errorf("heap: object %d spans [%d,%d) outside partition %d's allocated range [%d,%d)",
					r.oid, r.addr, end, p.ID, p.Base, p.Base+Addr(p.used))
			}
			if end := int(r.fieldOff) + int(r.nfields); end > len(fs) {
				return fmt.Errorf("heap: object %d's fields end at %d, past partition %d's field arena (%d words)", r.oid, end, p.ID, len(fs))
			}
			for f, t := range h.Fields(s) {
				if t != NilSlot && (int(t) >= len(h.slots) || !h.Resident(t)) {
					return fmt.Errorf("heap: object %d field %d names slot %d, which holds no object", r.oid, f, t)
				}
			}
			sumSizes += int64(r.size)
			addrScratch = append(addrScratch, s)
			resident++
			liveFields += int(r.nfields)
		}
		if sumSizes > p.used {
			return fmt.Errorf("heap: partition %d resident sizes %d exceed used %d", p.ID, sumSizes, p.used)
		}
		// Bump allocation never overlaps objects; Discard leaves holes but
		// cannot create overlaps either. Alloc and Move append an object's
		// fields as they bump its bytes, so in address order each object's
		// fields also end before the next object's begin.
		sort.Slice(addrScratch, func(i, j int) bool { return h.slots[addrScratch[i]].addr < h.slots[addrScratch[j]].addr })
		for i := 1; i < len(addrScratch); i++ {
			a, b := &h.slots[addrScratch[i-1]], &h.slots[addrScratch[i]]
			if a.addr+Addr(a.size) > b.addr {
				return fmt.Errorf("heap: objects %d and %d overlap in partition %d", a.oid, b.oid, p.ID)
			}
			if a.fieldOff+a.nfields > b.fieldOff {
				return fmt.Errorf("heap: objects %d and %d overlap in partition %d's field arena", a.oid, b.oid, p.ID)
			}
		}
	}
	if liveFields != h.liveFields {
		return fmt.Errorf("heap: resident objects have %d fields, counter says %d", liveFields, h.liveFields)
	}
	if sumUsed != h.occupied {
		return fmt.Errorf("heap: occupied counter %d, partitions sum to %d", h.occupied, sumUsed)
	}
	if h.occupied > h.totalAllocated {
		return fmt.Errorf("heap: occupied %d exceeds total allocated %d", h.occupied, h.totalAllocated)
	}
	if err := h.checkSlots(resident); err != nil {
		return err
	}

	// Reserved empty partition.
	if h.empty != NoPartition {
		if int(h.empty) >= len(h.parts) {
			return fmt.Errorf("heap: empty partition %d out of range", h.empty)
		}
		if used := h.parts[h.empty].used; used != 0 {
			return fmt.Errorf("heap: reserved empty partition %d has %d used bytes", h.empty, used)
		}
	}

	// Max-free index: byFree/freePos must be a bijection over exactly the
	// allocatable partitions (everything but the reserved empty one), and
	// the array must satisfy the binary-heap order freeBefore imposes.
	if len(h.freePos) != len(h.parts) {
		return fmt.Errorf("heap: freePos covers %d partitions, heap has %d", len(h.freePos), len(h.parts))
	}
	inIndex := 0
	for pid := range h.parts {
		p := PartitionID(pid)
		pos := int(h.freePos[p])
		if p == h.empty {
			if pos >= 0 {
				return fmt.Errorf("heap: reserved empty partition %d present in the free index", p)
			}
			continue
		}
		if pos < 0 || pos >= len(h.byFree) {
			return fmt.Errorf("heap: partition %d missing from the free index (pos %d)", p, pos)
		}
		if h.byFree[pos] != p {
			return fmt.Errorf("heap: free index slot %d holds partition %d, freePos says %d", pos, h.byFree[pos], p)
		}
		inIndex++
	}
	if inIndex != len(h.byFree) {
		return fmt.Errorf("heap: free index has %d entries, %d partitions are allocatable", len(h.byFree), inIndex)
	}
	for i := 1; i < len(h.byFree); i++ {
		parent := (i - 1) / 2
		if h.freeBefore(h.byFree[i], h.byFree[parent]) {
			return fmt.Errorf("heap: free index heap order violated at slot %d (partition %d outranks parent %d)",
				i, h.byFree[i], h.byFree[parent])
		}
	}
	return nil
}

// checkSlots reconciles the OID index, the slot storage, its free list
// and the root set. resident is the number of objects the partitions list.
func (h *Heap) checkSlots(resident int) error {
	// Every resident slot's OID indexes back to it (the index
	// round-trip), and the index names no slot that does not hold it.
	slotCount, rootFlags := 0, 0
	for i := 1; i < len(h.slots); i++ {
		s := Slot(i)
		r := &h.slots[s]
		if !h.Resident(s) {
			continue
		}
		slotCount++
		if r.oid == NilOID || r.oid >= OID(len(h.index)) || h.index[r.oid] != s {
			return fmt.Errorf("heap: slot %d holds OID %d, which the index does not map back to it", s, r.oid)
		}
		if r.root {
			rootFlags++
		}
	}
	indexCount := 0
	for oid, s := range h.index {
		if s == NilSlot {
			continue
		}
		indexCount++
		if int(s) >= len(h.slots) || h.slots[s].oid != OID(oid) || !h.Resident(s) {
			return fmt.Errorf("heap: index maps OID %d to slot %d, which does not hold it", oid, s)
		}
	}
	if slotCount != h.numObjects || indexCount != h.numObjects {
		return fmt.Errorf("heap: object count %d, slots hold %d, index maps %d", h.numObjects, slotCount, indexCount)
	}
	if slotCount != resident {
		return fmt.Errorf("heap: slots hold %d objects but partitions list %d", slotCount, resident)
	}

	// The free list holds exactly the slots that hold no object, each
	// once.
	onList := make(map[Slot]bool, len(h.free))
	for _, s := range h.free {
		if s == NilSlot || int(s) >= len(h.slots) {
			return fmt.Errorf("heap: free list names slot %d outside the slot storage (%d)", s, len(h.slots))
		}
		if onList[s] {
			return fmt.Errorf("heap: free list names slot %d twice", s)
		}
		onList[s] = true
		if r := &h.slots[s]; *r != freeRec {
			return fmt.Errorf("heap: free list names slot %d, whose record (object %d, %d fields) is not cleared", s, r.oid, r.nfields)
		}
	}
	if len(h.free) != len(h.slots)-1-slotCount {
		return fmt.Errorf("heap: free list holds %d slots, %d are free", len(h.free), len(h.slots)-1-slotCount)
	}

	for _, s := range h.rootList {
		if !h.Resident(s) {
			return fmt.Errorf("heap: root list names free slot %d", s)
		}
		if !h.slots[s].root {
			return fmt.Errorf("heap: root list names object %d whose root flag is clear", h.slots[s].oid)
		}
	}
	if rootFlags != len(h.rootList) {
		return fmt.Errorf("heap: %d objects carry the root flag, root list has %d (duplicate or stale entry)",
			rootFlags, len(h.rootList))
	}
	return nil
}
