package pagebuf

import "testing"

// The page buffer is on the per-event fast path: every simulated page
// access of the paper's cost model goes through touch. In steady state —
// once the frame arena is in use and the page table has grown to
// cover the address space — neither hits nor misses may allocate.
//
// The functions these guards exercise carry //odbgc:hotpath annotations
// checked by the hotcall analyzer; TestHotpathAnnotationsMatchGuards in
// internal/analysis keeps the two sets in sync via the declarations below.
//
//odbgc:allocguard pagebuf.Buffer.touch pagebuf.Buffer.evict
//odbgc:allocguard pagebuf.Buffer.unlink pagebuf.Buffer.pushFront
//odbgc:allocguard pagebuf.Buffer.pageAt

func TestPageBufHitZeroAllocs(t *testing.T) {
	b, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	for p := PageID(0); p < 8; p++ {
		b.Write(p, ActorApp)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		b.Read(3, ActorApp)
		b.Write(5, ActorGC)
	})
	if allocs != 0 {
		t.Fatalf("hit path steady state: %v allocs/op, want 0", allocs)
	}
}

func TestPageBufMissZeroAllocs(t *testing.T) {
	b, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: persist the working set so the steady-state loop exercises
	// the full miss path (dirty eviction + disk re-read).
	for p := PageID(0); p < 8; p++ {
		b.Write(p, ActorApp)
	}
	p := PageID(0)
	allocs := testing.AllocsPerRun(1000, func() {
		b.Write(p, ActorApp)
		p = (p + 1) % 8
	})
	if allocs != 0 {
		t.Fatalf("miss path steady state: %v allocs/op, want 0", allocs)
	}
}
