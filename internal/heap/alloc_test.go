package heap

import "testing"

// The simulator replays millions of trace events through Alloc, WriteField
// and the oracle; these guards pin the steady-state allocation behavior the
// dense structures were built for, so a regression shows up as a test
// failure rather than a silent slowdown.
//
// The functions these guards exercise carry //odbgc:hotpath annotations
// checked by the hotcall analyzer; TestHotpathAnnotationsMatchGuards in
// internal/analysis keeps the two sets in sync via the declarations below.
//
//odbgc:allocguard heap.Heap.Alloc heap.Heap.newSlot heap.Heap.growIndex heap.Heap.placeFor
//odbgc:allocguard heap.Heap.residentAdd heap.Heap.residentRemove heap.Heap.Discard
//odbgc:allocguard heap.Heap.WriteField heap.Heap.Move heap.Oracle.Live

// cycleObjects is how many 100-byte objects evacuationCycle allocates:
// most of a testConfig partition.
const cycleObjects = 300

// evacuationCycle is the heap's side of one collection. It fills the
// allocatable partition with objects of alternating field counts, moves
// every other one into the empty partition, discards the rest, resets
// the victim and makes it the empty partition. The survivors then die
// and their partition is reset too, so each cycle starts as the last
// one did with the two partitions' roles swapped. OIDs 1..cycleObjects
// are reused every cycle; live holds the cycle's slots.
func evacuationCycle(t *testing.T, h *Heap, live []Slot) {
	live = live[:0]
	for oid := OID(1); oid <= cycleObjects; oid++ {
		s, _, err := h.Alloc(oid, 100, 3+int(oid%2), NilSlot)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, s)
	}
	victim, dst := h.PartitionOf(live[0]), h.EmptyPartition()
	for i, s := range live {
		if i%2 == 0 {
			h.Move(s, dst)
		} else {
			h.Discard(s)
		}
	}
	h.ResetPartition(victim)
	h.SetEmptyPartition(victim)
	for i := 0; i < len(live); i += 2 {
		h.Discard(live[i])
	}
	h.ResetPartition(dst)
}

// TestAllocSteadyStateZeroAllocs pins the allocation, copy and reclaim
// paths together: once both partitions have been filled and have
// received survivors, their field arenas, the slot storage, the index
// and the resident lists all have capacity, and a whole cycle allocates
// nothing.
func TestAllocSteadyStateZeroAllocs(t *testing.T) {
	h := mustNew(t, testConfig())
	live := make([]Slot, 0, cycleObjects)
	evacuationCycle(t, h, live)
	evacuationCycle(t, h, live)
	allocs := testing.AllocsPerRun(100, func() { evacuationCycle(t, h, live) })
	if allocs != 0 {
		t.Fatalf("Alloc+Move+Discard+ResetPartition cycle: %v allocs/op, want 0", allocs)
	}
}

// TestFieldArenasStopGrowing runs many evacuation cycles: ResetPartition
// must hand the victim's field words back for reuse, so the arenas'
// capacity stops growing once each partition has been filled.
func TestFieldArenasStopGrowing(t *testing.T) {
	h := mustNew(t, testConfig())
	live := make([]Slot, 0, cycleObjects)
	evacuationCycle(t, h, live)
	evacuationCycle(t, h, live)
	warm := h.Footprint().ArenaWords
	for range 200 {
		evacuationCycle(t, h, live)
		if err := h.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Footprint().ArenaWords; got != warm {
		t.Fatalf("field arenas hold %d words after 200 more cycles, %d when warm", got, warm)
	}
}

func TestWriteFieldZeroAllocs(t *testing.T) {
	h := mustNew(t, testConfig())
	a := mustAlloc(t, h, 1, 100, 2, NilOID)
	b := mustAlloc(t, h, 2, 100, 0, NilOID)
	allocs := testing.AllocsPerRun(1000, func() {
		h.WriteField(a, 0, b)
		h.WriteField(a, 0, NilSlot)
	})
	if allocs != 0 {
		t.Fatalf("WriteField: %v allocs/op, want 0", allocs)
	}
}

func TestOracleLiveAmortizedZeroAllocs(t *testing.T) {
	h := mustNew(t, testConfig())
	for oid := OID(1); oid <= 50; oid++ {
		mustAlloc(t, h, oid, 100, 2, NilOID)
	}
	h.AddRoot(h.Lookup(1))
	for oid := OID(1); oid < 50; oid++ {
		write(h, oid, 0, oid+1)
	}
	o := NewOracle(h)
	o.Live() // warm the marks, list and queue scratch
	allocs := testing.AllocsPerRun(100, func() { o.Live() })
	if allocs != 0 {
		t.Fatalf("Oracle.Live steady state: %v allocs/op, want 0", allocs)
	}
}

// TestMoveZeroAllocs pins the collector's copy step: moving an object
// between two partitions with warm resident lists does not allocate.
func TestMoveZeroAllocs(t *testing.T) {
	h := mustNew(t, testConfig())
	s := mustAlloc(t, h, 1, 100, 2, NilOID)
	from, to := h.PartitionOf(s), h.EmptyPartition()
	h.Move(s, to)
	h.Move(s, from)
	allocs := testing.AllocsPerRun(10, func() {
		h.Move(s, to)
		h.Move(s, from)
	})
	if allocs != 0 {
		t.Fatalf("Move: %v allocs/op, want 0", allocs)
	}
}
