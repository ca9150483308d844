package pagebuf

import "testing"

func mustNew(t *testing.T, capacity int) *Buffer {
	t.Helper()
	b, err := New(capacity)
	if err != nil {
		t.Fatalf("New(%d): %v", capacity, err)
	}
	return b
}

func TestNewRejectsBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		if _, err := New(c); err == nil {
			t.Errorf("New(%d): want error", c)
		}
	}
}

func TestFreshPageMissCostsNoRead(t *testing.T) {
	b := mustNew(t, 4)
	b.Write(1, ActorApp)
	st := b.Stats().App()
	if st.Misses != 1 || st.ReadIOs != 0 {
		t.Fatalf("fresh write: misses=%d readIOs=%d, want 1,0", st.Misses, st.ReadIOs)
	}
}

func TestHitCostsNothing(t *testing.T) {
	b := mustNew(t, 4)
	b.Write(1, ActorApp)
	b.Read(1, ActorApp)
	b.Read(1, ActorApp)
	st := b.Stats().App()
	if st.Hits != 2 || st.ReadIOs != 0 || st.WriteIOs != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	b := mustNew(t, 2)
	b.Write(1, ActorApp)
	b.Write(2, ActorApp)
	b.Write(3, ActorApp) // evicts page 1 (dirty)
	st := b.Stats().App()
	if st.WriteIOs != 1 {
		t.Fatalf("WriteIOs = %d, want 1", st.WriteIOs)
	}
	if b.Contains(1) {
		t.Fatal("page 1 still cached after eviction")
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
}

func TestEvictedPageReadBackCostsRead(t *testing.T) {
	b := mustNew(t, 2)
	b.Write(1, ActorApp)
	b.Write(2, ActorApp)
	b.Write(3, ActorApp) // page 1 written to disk
	b.Read(1, ActorApp)  // must come back from disk
	st := b.Stats().App()
	if st.ReadIOs != 1 {
		t.Fatalf("ReadIOs = %d, want 1", st.ReadIOs)
	}
}

func TestCleanEvictionCostsNothing(t *testing.T) {
	b := mustNew(t, 2)
	// Persist pages 1 and 2 first.
	b.Write(1, ActorApp)
	b.Write(2, ActorApp)
	b.Write(3, ActorApp) // evict 1 dirty -> disk
	b.Write(4, ActorApp) // evict 2 dirty -> disk
	before := b.Stats().App().WriteIOs
	b.Read(1, ActorApp) // evict 3 dirty (+1 write, +1 read)
	b.Read(2, ActorApp) // evict 4 dirty (+1 write, +1 read)
	b.Read(5, ActorApp) // page 5 is fresh: evict 1 CLEAN, no write, no read
	st := b.Stats().App()
	if got := st.WriteIOs - before; got != 2 {
		t.Fatalf("WriteIOs delta = %d, want 2 (clean eviction must be free)", got)
	}
	if st.ReadIOs != 2 {
		t.Fatalf("ReadIOs = %d, want 2", st.ReadIOs)
	}
}

func TestLRUOrderOnReads(t *testing.T) {
	b := mustNew(t, 3)
	b.Write(1, ActorApp)
	b.Write(2, ActorApp)
	b.Write(3, ActorApp)
	b.Read(1, ActorApp)  // 1 becomes MRU; LRU order now 2,3,1
	b.Write(4, ActorApp) // evicts 2
	if b.Contains(2) {
		t.Fatal("page 2 should have been evicted")
	}
	for _, p := range []PageID{1, 3, 4} {
		if !b.Contains(p) {
			t.Fatalf("page %d missing", p)
		}
	}
}

func TestWriteMarksExistingPageDirty(t *testing.T) {
	b := mustNew(t, 2)
	b.Write(1, ActorApp)
	b.Write(2, ActorApp)
	b.Write(3, ActorApp) // 1 -> disk
	b.Read(1, ActorApp)  // 1 cached clean, evicts 2 (dirty write-back)
	b.Write(1, ActorApp) // hit, re-dirties
	wBefore := b.Stats().App().WriteIOs
	b.Read(4, ActorApp) // fresh page, evicts 3 (dirty)
	b.Read(5, ActorApp) // fresh page, evicts 1, which must be dirty again
	if got := b.Stats().App().WriteIOs - wBefore; got != 2 {
		t.Fatalf("WriteIOs delta = %d, want 2", got)
	}
}

func TestActorAttribution(t *testing.T) {
	b := mustNew(t, 1)
	b.Write(1, ActorApp)
	b.Write(2, ActorGC) // GC's miss evicts app's dirty page: GC pays
	app, gc := b.Stats().App(), b.Stats().GC()
	if app.WriteIOs != 0 || gc.WriteIOs != 1 {
		t.Fatalf("app.WriteIOs=%d gc.WriteIOs=%d, want 0,1", app.WriteIOs, gc.WriteIOs)
	}
	if app.Accesses() != 1 || gc.Accesses() != 1 {
		t.Fatalf("accesses app=%d gc=%d", app.Accesses(), gc.Accesses())
	}
}

func TestRangeHelpers(t *testing.T) {
	b := mustNew(t, 10)
	b.WriteRange(3, 5, ActorApp)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	b.ReadRange(3, 5, ActorApp)
	st := b.Stats().App()
	if st.Accesses() != 6 || st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStatsTotals(t *testing.T) {
	b := mustNew(t, 1)
	b.Write(1, ActorApp)
	b.Write(2, ActorGC) // GC: 1 write IO (evict), 0 reads
	b.Read(1, ActorApp) // app: evict 2 dirty (1 write), read 1 from disk (1 read)
	s := b.Stats()
	if got := s.TotalIOs(); got != 3 {
		t.Fatalf("TotalIOs = %d, want 3", got)
	}
	if s.App().IOs() != 2 || s.GC().IOs() != 1 {
		t.Fatalf("app=%d gc=%d, want 2,1", s.App().IOs(), s.GC().IOs())
	}
}

func TestActorString(t *testing.T) {
	if ActorApp.String() != "app" || ActorGC.String() != "gc" {
		t.Fatal("Actor.String mismatch")
	}
	if Actor(9).String() == "" {
		t.Fatal("unknown actor should still format")
	}
}

func TestCapacityOneThrashes(t *testing.T) {
	b := mustNew(t, 1)
	for i := 0; i < 10; i++ {
		b.Write(PageID(i%2), ActorApp)
	}
	st := b.Stats().App()
	if st.Hits != 0 {
		t.Fatalf("Hits = %d, want 0 with alternating pages in 1 frame", st.Hits)
	}
	// First two misses are fresh; every eviction is dirty.
	if st.WriteIOs != 9 {
		t.Fatalf("WriteIOs = %d, want 9", st.WriteIOs)
	}
	if st.ReadIOs != 8 {
		t.Fatalf("ReadIOs = %d, want 8", st.ReadIOs)
	}
}
