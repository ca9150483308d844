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
	env := &core.Env{Heap: h, Oracle: heap.NewOracle(h), Rand: rand.New(rand.NewSource(1))}
	return &rig{
		h: h, buf: buf, rem: rem, pol: pol, env: env,
		mut: NewMutator(h, buf, rem, pol),
		col: auditedCollector{Collector: NewCollector(h, buf, rem, pol, env)},
	}
}

// BenchmarkEvacuatePartition measures one full-partition evacuation with
// a ~50% survival rate — the collector's hot path.
func BenchmarkEvacuatePartition(b *testing.B) {
	pol := &forcedBenchPolicy{}
	r := benchRig(b, pol)
	rng := rand.New(rand.NewSource(7))

	// Build a rooted chainy graph filling partition 0, half reachable.
	var oid heap.OID = 1
	if _, err := r.mut.Alloc(oid, 100, 4, heap.NilOID, 0); err != nil {
		b.Fatal(err)
	}
	if err := r.mut.Root(oid); err != nil {
		b.Fatal(err)
	}
	prev := oid
	for i := 0; i < 3500; i++ {
		oid++
		parent := heap.NilOID
		field := 0
		if rng.Intn(2) == 0 { // half the objects are reachable
			parent, field = prev, rng.Intn(4)
			if r.field(prev, field) != heap.NilOID {
				field = -1
			}
		}
		if field == -1 {
			parent = heap.NilOID
			field = 0
		}
		if _, err := r.mut.Alloc(oid, 100, 4, parent, field); err != nil {
			b.Fatal(err)
		}
		if parent != heap.NilOID {
			prev = oid
		}
	}

	pol.victim = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := r.col.Collect()
		if !res.Collected {
			b.Fatal("collection declined")
		}
		// Collect back and forth between the two partitions holding the
		// survivors; pick whichever is non-empty.
		if r.h.Partition(pol.victim).Used() == 0 {
			for p := 0; p < r.h.NumPartitions(); p++ {
				if heap.PartitionID(p) != r.h.EmptyPartition() && r.h.Partition(heap.PartitionID(p)).Used() > 0 {
					pol.victim = heap.PartitionID(p)
					break
				}
			}
		}
	}
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
