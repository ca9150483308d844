package shard

import (
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/sim"
	"odbgc/internal/trace"
)

// TestDrainBatchZeroAllocs pins the shard-local fast path: replaying a
// steady-state batch of reads, modifies, and writes with no foreign
// marks must not allocate, with no cross-shard traffic at all and again
// once another source holds a foreign reference (a non-empty fout) while
// the batch's writes come from a source holding none.
// drainBatch carries the //odbgc:hotpath annotation checked by the
// hotcall analyzer; TestHotpathAnnotationsMatchGuards in
// internal/analysis keeps the annotation and this guard in sync via the
// declaration below.
//
//odbgc:allocguard shard.shardRunner.drainBatch
func TestDrainBatchZeroAllocs(t *testing.T) {
	eng, err := New(Config{
		Shards: 2,
		Sim: sim.Config{
			Seed:              1,
			Policy:            core.NameMutatedPartition,
			Heap:              heap.Config{PageSize: 4096, PartitionPages: 8, ReserveEmpty: true},
			TriggerOverwrites: 1 << 30,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := eng.runners[0]
	setup := &Batch{Events: []trace.Event{
		{Kind: trace.KindCreate, OID: 1, Size: 256, NFields: 4},
		{Kind: trace.KindRoot, OID: 1},
		{Kind: trace.KindCreate, OID: 2, Size: 256, NFields: 4, Parent: 1, ParentField: 0},
	}}
	if err := r.drainBatch(setup); err != nil {
		t.Fatal(err)
	}

	steady := &Batch{Events: []trace.Event{
		{Kind: trace.KindRead, OID: 1},
		{Kind: trace.KindModify, OID: 2},
		{Kind: trace.KindWrite, OID: 1, Field: 2, Target: 2},
	}}
	if err := r.drainBatch(steady); err != nil {
		t.Fatal(err) // warm the remset entry the write repeatedly replaces
	}
	steadyAllocs := func() float64 {
		return testing.AllocsPerRun(200, func() {
			if err := r.drainBatch(steady); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs := steadyAllocs(); allocs != 0 {
		t.Errorf("drainBatch with no cross-shard traffic allocates %v times per batch, want 0", allocs)
	}

	foreign := &Batch{
		Events: []trace.Event{
			{Kind: trace.KindCreate, OID: 3, Size: 256, NFields: 4, Parent: 1, ParentField: 1},
			{Kind: trace.KindWrite, OID: 3, Field: 2},
		},
		Foreign: []ForeignWrite{{Pos: 1, Shard: 1, Target: 1}},
	}
	if err := r.drainBatch(foreign); err != nil {
		t.Fatal(err)
	}
	if len(r.fout) != 1 || count(r.foutCount, r.h.Lookup(1)) != 0 {
		t.Fatalf("fout %v, source 1's count %d: want one entry, none from source 1", r.fout, count(r.foutCount, r.h.Lookup(1)))
	}
	if allocs := steadyAllocs(); allocs != 0 {
		t.Errorf("drainBatch with a non-empty fout allocates %v times per batch from a source holding no foreign reference, want 0", allocs)
	}
}
