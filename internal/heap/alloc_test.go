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
//odbgc:allocguard heap.Heap.Alloc heap.Heap.newObject heap.Heap.growTable heap.Heap.placeFor
//odbgc:allocguard heap.Heap.residentAdd heap.Heap.residentRemove heap.Heap.Discard
//odbgc:allocguard heap.Heap.WriteField heap.Oracle.Live

func TestAllocSteadyStateZeroAllocs(t *testing.T) {
	h := mustNew(t, testConfig())
	// Warm up: create the object once so the table, the partition's
	// resident list, and the object pool all have capacity.
	mustAlloc(t, h, 1, 100, 4, NilOID)
	h.Discard(1)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := h.Alloc(1, 100, 4, NilOID); err != nil {
			t.Fatal(err)
		}
		h.Discard(1)
	})
	if allocs != 0 {
		t.Fatalf("Alloc+Discard steady state: %v allocs/op, want 0", allocs)
	}
}

func TestWriteFieldZeroAllocs(t *testing.T) {
	h := mustNew(t, testConfig())
	mustAlloc(t, h, 1, 100, 2, NilOID)
	mustAlloc(t, h, 2, 100, 0, NilOID)
	allocs := testing.AllocsPerRun(1000, func() {
		h.WriteField(1, 0, 2)
		h.WriteField(1, 0, NilOID)
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
	h.AddRoot(1)
	for oid := OID(1); oid < 50; oid++ {
		h.WriteField(oid, 0, oid+1)
	}
	o := NewOracle(h)
	o.Live() // warm the marks, list and queue scratch
	allocs := testing.AllocsPerRun(100, func() { o.Live() })
	if allocs != 0 {
		t.Fatalf("Oracle.Live steady state: %v allocs/op, want 0", allocs)
	}
}
