package heap

import "testing"

// buildGraph allocates a small object graph:
//
//	root 1 -> 2 -> 3
//	          2 -> 4
//	garbage: 5 -> 6 (unreachable pair), 7 (isolated)
func buildGraph(t *testing.T) *Heap {
	t.Helper()
	h := mustNew(t, testConfig())
	for oid := OID(1); oid <= 7; oid++ {
		mustAlloc(t, h, oid, 100, 2, NilOID)
	}
	h.AddRoot(h.Lookup(1))
	write(h, 1, 0, 2)
	write(h, 2, 0, 3)
	write(h, 2, 1, 4)
	write(h, 5, 0, 6)
	return h
}

func TestOracleLive(t *testing.T) {
	h := buildGraph(t)
	live := NewOracle(h).Live()
	want := map[OID]bool{1: true, 2: true, 3: true, 4: true}
	if live.Len() != len(want) {
		t.Fatalf("live set size %d, want %d", live.Len(), len(want))
	}
	for oid := range want {
		if !live.Contains(oid) {
			t.Errorf("live set missing %d", oid)
		}
	}
}

func TestOracleLiveBytes(t *testing.T) {
	h := buildGraph(t)
	if got := NewOracle(h).LiveBytes(); got != 400 {
		t.Fatalf("LiveBytes = %d, want 400", got)
	}
}

func TestOracleUnreclaimedGarbage(t *testing.T) {
	h := buildGraph(t)
	if got := NewOracle(h).UnreclaimedGarbageBytes(); got != 300 {
		t.Fatalf("UnreclaimedGarbageBytes = %d, want 300", got)
	}
}

func TestOracleGarbageByPartition(t *testing.T) {
	h := buildGraph(t)
	g := NewOracle(h).GarbageByPartition()
	var total int64
	for _, amt := range g {
		if amt < 0 {
			t.Fatalf("negative garbage: %v", g)
		}
		total += amt
	}
	if total != 300 {
		t.Fatalf("total garbage = %d, want 300", total)
	}
}

func TestOracleMostGarbagePartition(t *testing.T) {
	cfg := testConfig()
	h := mustNew(t, cfg)
	// Partition 0: one live root and one garbage object.
	h.AddRoot(mustAlloc(t, h, 1, 100, 1, NilOID))
	mustAlloc(t, h, 2, 100, 0, 1) // same partition as 1, unreachable

	// Force a new partition holding more garbage than partition 0: the
	// object is too big for partition 0's remaining free space.
	big := cfg.PartitionBytes() - 100
	obj3 := mustAlloc(t, h, 3, big, 0, NilOID)
	if h.PartitionOf(obj3) == 0 {
		t.Fatal("test setup: obj3 should land in a fresh partition")
	}

	best, amt := NewOracle(h).MostGarbagePartition()
	if best != h.PartitionOf(obj3) || amt != big {
		t.Fatalf("MostGarbagePartition = (%d, %d), want (%d, %d)", best, amt, h.PartitionOf(obj3), big)
	}
}

func TestOracleExcludesEmptyPartition(t *testing.T) {
	h := mustNew(t, testConfig())
	mustAlloc(t, h, 1, 100, 0, NilOID) // garbage in partition 0
	best, _ := NewOracle(h).MostGarbagePartition()
	if best == h.EmptyPartition() {
		t.Fatal("selected the reserved empty partition")
	}
	if best != 0 {
		t.Fatalf("best = %d, want 0", best)
	}
}

func TestOracleHandlesCycles(t *testing.T) {
	h := mustNew(t, testConfig())
	mustAlloc(t, h, 1, 100, 1, NilOID)
	mustAlloc(t, h, 2, 100, 1, NilOID)
	mustAlloc(t, h, 3, 100, 1, NilOID)
	h.AddRoot(h.Lookup(1))
	write(h, 1, 0, 2)
	write(h, 2, 0, 3)
	write(h, 3, 0, 1) // cycle back to root
	live := NewOracle(h).Live()
	if live.Len() != 3 {
		t.Fatalf("live set size %d, want 3", live.Len())
	}
	// Unreachable cycle is garbage.
	mustAlloc(t, h, 4, 100, 1, NilOID)
	mustAlloc(t, h, 5, 100, 1, NilOID)
	write(h, 4, 0, 5)
	write(h, 5, 0, 4)
	o := NewOracle(h)
	if got := o.UnreclaimedGarbageBytes(); got != 200 {
		t.Fatalf("cycle garbage = %d, want 200", got)
	}
}

func TestOracleScratchReuse(t *testing.T) {
	h := buildGraph(t)
	o := NewOracle(h)
	first := o.LiveBytes()
	for i := 0; i < 5; i++ {
		if got := o.LiveBytes(); got != first {
			t.Fatalf("run %d: LiveBytes = %d, want stable %d", i, got, first)
		}
	}
}

func TestOracleIgnoresDanglingFields(t *testing.T) {
	// A field can briefly name a discarded OID mid-collection; the oracle
	// must not crash on it.
	h := mustNew(t, testConfig())
	mustAlloc(t, h, 1, 100, 1, NilOID)
	mustAlloc(t, h, 2, 100, 0, NilOID)
	h.AddRoot(h.Lookup(1))
	write(h, 1, 0, 2)
	h.Discard(h.Lookup(2))
	if got := NewOracle(h).LiveBytes(); got != 100 {
		t.Fatalf("LiveBytes = %d, want 100", got)
	}
}

// TestMarkEpochWraparound: when the heap's uint32 mark epoch wraps, every
// stamp is cleared, so no stale stamp from the previous cycle of epochs
// can pass for a mark of the new pass.
func TestMarkEpochWraparound(t *testing.T) {
	h := buildGraph(t)
	o := NewOracle(h)
	want := o.LiveBytes()
	h.markEpoch = ^uint32(0) - 1 // the next pass stamps MaxUint32, the one after wraps
	for i := 0; i < 3; i++ {
		if got := o.LiveBytes(); got != want {
			t.Fatalf("pass %d around the wrap: LiveBytes = %d, want %d", i, got, want)
		}
	}
	if h.markEpoch != 2 {
		t.Fatalf("epoch after wrapping = %d, want 2", h.markEpoch)
	}
}
