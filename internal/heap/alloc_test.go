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
//odbgc:allocguard heap.Heap.allocFields heap.Heap.compactArena
//odbgc:allocguard heap.Heap.residentAdd heap.Heap.residentRemove heap.Heap.Discard
//odbgc:allocguard heap.Heap.WriteField heap.Heap.Move heap.Oracle.Live

func TestAllocSteadyStateZeroAllocs(t *testing.T) {
	h := mustNew(t, testConfig())
	// Warm up: create the object once so the index, the slot storage,
	// the partition's resident list, and the field arena all have
	// capacity. The loop then recycles the slot, alternating field
	// counts, and each round appends a new run to the arena, compacting
	// it in place every few rounds.
	h.Discard(mustAlloc(t, h, 1, 100, 4, NilOID))
	n := 0
	allocs := testing.AllocsPerRun(1000, func() {
		n++
		s, _, err := h.Alloc(1, 100, 3+n%3/2, NilSlot)
		if err != nil {
			t.Fatal(err)
		}
		h.Discard(s)
	})
	if allocs != 0 {
		t.Fatalf("Alloc+Discard steady state: %v allocs/op, want 0", allocs)
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
