package shard

import (
	"strings"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/sim"
	"odbgc/internal/trace"
)

// newBarrierEngine builds a 2-shard engine whose trigger never fires, so
// the foreign-barrier unit tests below can hand-feed batches to the
// runners without collections interleaving.
func newBarrierEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := New(Config{
		Shards: 2,
		Sim: sim.Config{
			Seed:              1,
			Policy:            core.NameMutatedPartition,
			Heap:              heap.Config{PageSize: 4096, PartitionPages: 8, ReserveEmpty: true},
			TriggerOverwrites: 1_000_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func drain(t *testing.T, r *shardRunner, b *Batch) {
	t.Helper()
	if err := r.drainBatch(b); err != nil {
		t.Fatalf("shard %d drainBatch: %v", r.id, err)
	}
}

func create(oid heap.OID) trace.Event {
	return trace.Event{Kind: trace.KindCreate, OID: oid, Size: 256, NFields: 4}
}

func root(oid heap.OID) trace.Event {
	return trace.Event{Kind: trace.KindRoot, OID: oid}
}

// TestForeignBarrierRetractsOnOverwrite walks one pointer location
// through the foreign barrier's three transitions — nil → foreign,
// foreign → foreign, foreign → local nil — and checks the delta stream
// the target shard receives nets out to zero.
func TestForeignBarrierRetractsOnOverwrite(t *testing.T) {
	eng := newBarrierEngine(t)
	r0, r1 := eng.runners[0], eng.runners[1]
	drain(t, r1, &Batch{Events: []trace.Event{create(1), root(1)}})

	// nil → foreign: installs fout, enqueues one add.
	drain(t, r0, &Batch{
		Events:  []trace.Event{create(1), root(1), {Kind: trace.KindWrite, OID: 1, Field: 2}},
		Foreign: []ForeignWrite{{Pos: 2, Shard: 1, Target: 1}},
	})
	if r0.foreignWrites != 1 || len(r0.fout) != 1 || r0.foutCount[1] != 1 {
		t.Fatalf("after first foreign write: foreignWrites %d fout %d foutCount %v",
			r0.foreignWrites, len(r0.fout), r0.foutCount)
	}
	if len(r0.out[1]) != 1 || r0.out[1][0].remove {
		t.Fatalf("after first foreign write: out[1] = %+v, want one add", r0.out[1])
	}

	// foreign → foreign: retracts the old entry, installs the new one.
	drain(t, r0, &Batch{
		Events:  []trace.Event{{Kind: trace.KindWrite, OID: 1, Field: 2}},
		Foreign: []ForeignWrite{{Pos: 0, Shard: 1, Target: 1}},
	})
	// foreign → local nil: no mark, but the non-empty fout forces the
	// barrier through, which must retract.
	drain(t, r0, &Batch{Events: []trace.Event{{Kind: trace.KindWrite, OID: 1, Field: 2}}})
	if len(r0.fout) != 0 || len(r0.foutCount) != 0 {
		t.Fatalf("after retraction: fout %v foutCount %v", r0.fout, r0.foutCount)
	}
	if got := r0.sim.MutatorStats().TotalOverwrites; got != 2 {
		t.Errorf("TotalOverwrites = %d, want 2 (both foreign retracts, invisible to the local barrier)", got)
	}

	// The receiver folds add/remove/add/remove to nothing.
	if err := r1.applyDeltas(0, r0.out[1]); err != nil {
		t.Fatalf("applyDeltas: %v", err)
	}
	if len(r1.xin) != 0 {
		t.Errorf("xin = %v after a net-zero delta stream, want empty", r1.xin)
	}
	if r1.deltasRecv != 4 {
		t.Errorf("deltasRecv = %d, want 4", r1.deltasRecv)
	}
}

// TestCreateBarrierRetractsForeignRef covers the creating store: a child
// created into a field holding a foreign reference must retract it, just
// as an explicit write would.
func TestCreateBarrierRetractsForeignRef(t *testing.T) {
	eng := newBarrierEngine(t)
	r0, r1 := eng.runners[0], eng.runners[1]
	drain(t, r1, &Batch{Events: []trace.Event{create(1), root(1)}})
	drain(t, r0, &Batch{
		Events:  []trace.Event{create(1), root(1), {Kind: trace.KindWrite, OID: 1, Field: 0}},
		Foreign: []ForeignWrite{{Pos: 2, Shard: 1, Target: 1}},
	})
	child := create(2)
	child.Parent = 1
	child.ParentField = 0
	drain(t, r0, &Batch{Events: []trace.Event{child}})
	if len(r0.fout) != 0 || len(r0.foutCount) != 0 {
		t.Fatalf("creating store left fout %v foutCount %v", r0.fout, r0.foutCount)
	}
	if got := r0.sim.MutatorStats().TotalOverwrites; got != 1 {
		t.Errorf("TotalOverwrites = %d, want 1", got)
	}
	if len(r0.out[1]) != 2 || r0.out[1][0].remove || !r0.out[1][1].remove {
		t.Fatalf("out[1] = %+v, want add then remove", r0.out[1])
	}
}

// TestOnDiscardRetracts drives the discard hook directly: a dying object
// holding foreign references must retract exactly its own entries, and an
// object with none must be a no-op.
func TestOnDiscardRetracts(t *testing.T) {
	eng := newBarrierEngine(t)
	r0, r1 := eng.runners[0], eng.runners[1]
	drain(t, r1, &Batch{Events: []trace.Event{create(1), root(1)}})
	drain(t, r0, &Batch{
		Events: []trace.Event{
			create(1), root(1), create(2),
			{Kind: trace.KindWrite, OID: 1, Field: 2},
			{Kind: trace.KindWrite, OID: 1, Field: 3},
			{Kind: trace.KindWrite, OID: 2, Field: 2},
		},
		Foreign: []ForeignWrite{{Pos: 3, Shard: 1, Target: 1}, {Pos: 4, Shard: 1, Target: 1}, {Pos: 5, Shard: 1, Target: 1}},
	})
	if len(r0.fout) != 3 {
		t.Fatalf("fout has %d entries, want 3", len(r0.fout))
	}

	r0.onDiscard(1)
	if len(r0.fout) != 1 || r0.foutCount[1] != 0 || r0.foutCount[2] != 1 {
		t.Fatalf("after discard of 1: fout %v foutCount %v", r0.fout, r0.foutCount)
	}
	r0.onDiscard(3) // never had foreign refs: must not even touch the heap
	if err := r1.applyDeltas(0, r0.out[1]); err != nil {
		t.Fatalf("applyDeltas: %v", err)
	}
	if len(r1.xin) != 1 || r1.xin[1] != 1 {
		t.Errorf("xin = %v, want {1:1} (only object 2's reference survives)", r1.xin)
	}
}

// TestApplyDeltasUnderflow proves a remove without a matching add is
// reported, not absorbed — the protocol guarantees sender order, so an
// underflow always means a real bug.
func TestApplyDeltasUnderflow(t *testing.T) {
	eng := newBarrierEngine(t)
	err := eng.runners[1].applyDeltas(0, []delta{{target: 9, remove: true}})
	if err == nil || !strings.Contains(err.Error(), "underflow") {
		t.Fatalf("applyDeltas underflow error = %v", err)
	}
}

// TestOnDiscardDriftIsNamedError corrupts one runner's foreign out-count
// and lets a real collection discard the object: the drain that ran the
// collection must return an error naming the shard and the local OID.
func TestOnDiscardDriftIsNamedError(t *testing.T) {
	eng, err := New(Config{
		Shards: 2,
		Sim: sim.Config{
			Seed:              1,
			Policy:            core.NameMutatedPartition,
			Heap:              heap.Config{PageSize: 4096, PartitionPages: 8, ReserveEmpty: true},
			TriggerOverwrites: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := eng.runners[0], eng.runners[1]
	drain(t, r1, &Batch{Events: []trace.Event{create(1), root(1)}})
	child := create(2)
	child.Parent = 1
	drain(t, r0, &Batch{
		Events:  []trace.Event{create(1), root(1), child, {Kind: trace.KindWrite, OID: 2, Field: 2}},
		Foreign: []ForeignWrite{{Pos: 3, Shard: 1, Target: 1}},
	})
	r0.foutCount[2] = 2 // one fout entry, counted twice

	// Overwriting 1.0 strands object 2 and fires the trigger.
	err = r0.drain(&Batch{Events: []trace.Event{{Kind: trace.KindWrite, OID: 1, Field: 0}}})
	if err == nil || !strings.Contains(err.Error(), "shard 0: foreign out-count drift for local OID 2") {
		t.Fatalf("drain error = %v, want the named out-count drift", err)
	}
}
