package gc

import (
	"math/rand"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/pagebuf"
	"odbgc/internal/remset"
)

// benchRig wires a paper-scale stack (48-page partitions) with a
// populated two-partition graph for collection benchmarks.
func benchRig(b *testing.B, pol core.Policy) *rig {
	b.Helper()
	h, err := heap.New(heap.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	buf, err := pagebuf.New(48)
	if err != nil {
		b.Fatal(err)
	}
	rem := remset.New(h)
	env := &core.Env{Heap: h, Oracle: heap.NewOracle(h)}
	return &rig{
		h: h, buf: buf, rem: rem, pol: pol, env: env,
		mut: NewMutator(h, buf, rem, pol),
		col: auditedCollector{Collector: NewCollector(h, buf, rem, pol, env)},
	}
}

// Evacuation benchmark geometry: benchVictimObjects objects of
// benchObjectBytes fill most of a 48-page victim partition, about half of
// them reachable, and benchHolders objects in a separate, full partition
// hold the pointers into it that its remembered set records.
const (
	benchObjectBytes   = 100
	benchVictimObjects = 3500
	benchHolders       = 100
	benchFirstVictim   = heap.OID(benchHolders + 3) // after the root, holders and ballast
)

// BenchmarkEvacuatePartition measures one full-partition evacuation: a
// partition about half garbage, whose survivors are reached through its
// remembered set and copied breadth-first, and whose dead are purged from
// the remembered sets they point into and discarded. Each iteration
// rebuilds the same victim with the timer stopped, so every timed
// collection does the same work; reclaimed/op shows that it reclaimed.
func BenchmarkEvacuatePartition(b *testing.B) {
	pol := &forcedBenchPolicy{}
	r := benchRig(b, pol)

	// The root chains the holders through field 0; their fields 1-3 will
	// point into the victim. A ballast object fills the rest of the
	// holders' partition, so every victim object is placed elsewhere.
	must := func(_ bool, err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	must(r.mut.Alloc(1, benchObjectBytes, 4, heap.NilOID, 0))
	if err := r.mut.Root(1); err != nil {
		b.Fatal(err)
	}
	for oid := heap.OID(2); oid < benchHolders+2; oid++ {
		must(r.mut.Alloc(oid, benchObjectBytes, 4, oid-1, 0))
	}
	home := r.h.PartitionOf(r.h.Lookup(1))
	ballast := r.h.Config().PartitionBytes() - r.h.Partition(home).Used()
	must(r.mut.Alloc(benchFirstVictim-1, ballast, 0, 1, 1))

	var reclaimed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		victim := buildBenchVictim(b, r)
		pol.victim = victim
		b.StartTimer()
		res := r.col.Collect()
		b.StopTimer()
		if !res.Collected || res.Victim != victim {
			b.Fatalf("collected %+v, want partition %d", res, victim)
		}
		reclaimed += res.ReclaimedObjects

		// Cut the holders' pointers to the survivors, and collect them as
		// garbage too: the victim's OIDs are free for the next rebuild.
		for h := heap.OID(2); h < benchHolders+2; h++ {
			for f := 1; f < 4; f++ {
				must(r.mut.Write(h, f, heap.NilOID))
			}
		}
		pol.victim = res.Dest
		if res := r.col.Collect(); res.CopiedObjects != 0 {
			b.Fatalf("survivors' partition kept %d objects", res.CopiedObjects)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(reclaimed)/float64(b.N), "reclaimed/op")
}

// buildBenchVictim allocates the victim objects and returns their
// partition. A fixed seed makes about half of them reachable: from a
// holder's field, which puts an entry in the victim's remembered set, or
// as the next child of a reachable victim object. The rest are garbage
// trees, some of whose objects point back at a holder, which gives their
// purge entries to remove.
func buildBenchVictim(b *testing.B, r *rig) heap.PartitionID {
	rng := rand.New(rand.NewSource(7))
	var live, dead []heap.OID
	holderFields, liveChildren, deadChildren := 0, 0, 0
	for i := 0; i < benchVictimObjects; i++ {
		oid := benchFirstVictim + heap.OID(i)
		parent, field, backPointer := heap.NilOID, 0, false
		if rng.Intn(2) == 0 {
			if len(live) == 0 || (rng.Intn(8) == 0 && holderFields < 3*benchHolders) {
				parent, field = heap.OID(2+holderFields/3), 1+holderFields%3
				holderFields++
			} else {
				parent, field = live[liveChildren/4], liveChildren%4
				liveChildren++
			}
			live = append(live, oid)
		} else {
			if len(dead) > 0 && rng.Intn(8) != 0 {
				parent, field = dead[deadChildren/3], deadChildren%3
				deadChildren++
			}
			dead = append(dead, oid)
			backPointer = rng.Intn(4) == 0
		}
		if _, err := r.mut.Alloc(oid, benchObjectBytes, 4, parent, field); err != nil {
			b.Fatal(err)
		}
		if backPointer {
			if _, err := r.mut.Write(oid, 3, heap.OID(2+rng.Intn(benchHolders))); err != nil {
				b.Fatal(err)
			}
		}
	}
	victim := r.h.PartitionOf(r.h.Lookup(benchFirstVictim))
	if r.rem.InCount(victim) == 0 {
		b.Fatal("no remembered-set entries into the victim")
	}
	return victim
}

// forcedBenchPolicy mirrors the test helper without importing test files.
type forcedBenchPolicy struct {
	core.NoCollection
	victim heap.PartitionID
}

func (f *forcedBenchPolicy) Name() string { return "ForcedBench" }
func (f *forcedBenchPolicy) Select(*core.Env) (heap.PartitionID, bool) {
	return f.victim, true
}

// BenchmarkWriteBarrier measures the full mutator store path (heap write,
// remembered sets, weights, policy hook).
func BenchmarkWriteBarrier(b *testing.B) {
	r := benchRig(b, core.NewUpdatedPointer())
	const n = 5000
	for i := 1; i <= n; i++ {
		if _, err := r.mut.Alloc(heap.OID(i), 100, 4, heap.NilOID, 0); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := heap.OID(rng.Intn(n) + 1)
		var target heap.OID
		if rng.Intn(3) != 0 {
			target = heap.OID(rng.Intn(n) + 1)
		}
		if _, err := r.mut.Write(src, rng.Intn(4), target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlobalSweepBench measures the global marking pass on a
// moderately sized heap.
func BenchmarkGlobalSweepBench(b *testing.B) {
	r := benchRig(b, core.NewNoCollection())
	rng := rand.New(rand.NewSource(3))
	var oid heap.OID = 1
	if _, err := r.mut.Alloc(oid, 100, 4, heap.NilOID, 0); err != nil {
		b.Fatal(err)
	}
	if err := r.mut.Root(oid); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		oid++
		parent := heap.OID(rng.Intn(int(oid)-1) + 1)
		field := rng.Intn(4)
		if r.field(parent, field) != heap.NilOID {
			parent, field = heap.NilOID, 0
		}
		if _, err := r.mut.Alloc(oid, 100, 4, parent, field); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.col.GlobalSweep()
	}
}
