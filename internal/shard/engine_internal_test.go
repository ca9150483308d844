package shard

import (
	"fmt"
	"slices"
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

// foutOf reads a runner's foreign-out count for the resident source oid.
func foutOf(r *shardRunner, oid heap.OID) int32 { return count(r.foutCount, r.h.Lookup(oid)) }

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
	if r0.foreignWrites != 1 || len(r0.fout) != 1 || foutOf(r0, 1) != 1 {
		t.Fatalf("after first foreign write: foreignWrites %d fout %d foutCount %d",
			r0.foreignWrites, len(r0.fout), foutOf(r0, 1))
	}
	if len(r0.out[1]) != 1 || r0.out[1][0].remove {
		t.Fatalf("after first foreign write: out[1] = %+v, want one add", r0.out[1])
	}

	// foreign → foreign: retracts the old entry, installs the new one.
	drain(t, r0, &Batch{
		Events:  []trace.Event{{Kind: trace.KindWrite, OID: 1, Field: 2}},
		Foreign: []ForeignWrite{{Pos: 0, Shard: 1, Target: 1}},
	})
	// foreign → local nil: no mark, but the source's positive foutCount
	// forces the barrier through, which must retract.
	drain(t, r0, &Batch{Events: []trace.Event{{Kind: trace.KindWrite, OID: 1, Field: 2}}})
	if len(r0.fout) != 0 || foutOf(r0, 1) != 0 {
		t.Fatalf("after retraction: fout %v foutCount %d", r0.fout, foutOf(r0, 1))
	}
	if got := r0.sim.MutatorStats().TotalOverwrites; got != 2 {
		t.Errorf("TotalOverwrites = %d, want 2 (both foreign retracts, invisible to the local barrier)", got)
	}

	// The receiver folds add/remove/add/remove to nothing.
	if err := r1.applyDeltas(0, r0.out[1]); err != nil {
		t.Fatalf("applyDeltas: %v", err)
	}
	if n := r1.externalRefs(); n != 0 {
		t.Errorf("%d external refs after a net-zero delta stream, want none", n)
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
	if len(r0.fout) != 0 || foutOf(r0, 1) != 0 {
		t.Fatalf("creating store left fout %v foutCount %d", r0.fout, foutOf(r0, 1))
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

	r0.onDiscard(r0.h.Lookup(1))
	if len(r0.fout) != 1 || foutOf(r0, 1) != 0 || foutOf(r0, 2) != 1 {
		t.Fatalf("after discard of 1: fout %v foutCount %d, %d", r0.fout, foutOf(r0, 1), foutOf(r0, 2))
	}
	r0.onDiscard(3) // slot 3 holds no object and no count: must not even touch the heap
	if err := r1.applyDeltas(0, r0.out[1]); err != nil {
		t.Fatalf("applyDeltas: %v", err)
	}
	if n := count(r1.xin, r1.h.Lookup(1)); r1.externalRefs() != 1 || n != 1 {
		t.Errorf("%d external refs, %d on OID 1; want only object 2's reference to survive", r1.externalRefs(), n)
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
	r0.foutCount[r0.h.Lookup(2)] = 2 // one fout entry, counted twice

	// Overwriting 1.0 strands object 2 and fires the trigger.
	err = r0.drain(&Batch{Events: []trace.Event{{Kind: trace.KindWrite, OID: 1, Field: 0}}})
	if err == nil || !strings.Contains(err.Error(), "shard 0: foreign out-count drift for local OID 2") {
		t.Fatalf("drain error = %v, want the named out-count drift", err)
	}
}

// pickVictim is a policy whose Select collects the partition *victim
// names, so a test can direct each collection.
type pickVictim struct {
	core.Policy
	victim *heap.PartitionID
}

func (p pickVictim) Select(*core.Env) (heap.PartitionID, bool) { return *p.victim, true }

// newDirectedEngine builds a 2-shard engine that collects partition
// *victim at every pointer overwrite.
func newDirectedEngine(t *testing.T, victim *heap.PartitionID) *Engine {
	t.Helper()
	eng, err := New(Config{
		Shards: 2,
		Sim: sim.Config{
			Seed:              1,
			Policy:            "directed",
			PolicyFactory:     func() core.Policy { return pickVictim{core.NewUpdatedPointer(), victim} },
			Heap:              heap.Config{PageSize: 4096, PartitionPages: 8, ReserveEmpty: true},
			TriggerOverwrites: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// rootsOf returns the OIDs externalRoots passes for a victim, in order.
func rootsOf(r *shardRunner, victim heap.PartitionID) []heap.OID {
	var oids []heap.OID
	r.externalRoots(victim, func(s heap.Slot) { oids = append(oids, r.h.OID(s)) })
	return oids
}

// TestExternalRootsFollowTheVictim: with external references on
// residents of three partitions, the roots hook passes only the victim's
// referenced residents, in ascending OID order, even where the victim's
// resident list holds them in another order.
func TestExternalRootsFollowTheVictim(t *testing.T) {
	var victim heap.PartitionID
	eng := newDirectedEngine(t, &victim)
	r1 := eng.runners[1]
	// Three 10,000-byte objects fill each 32 KB partition: OIDs 1-3,
	// 4-6 and 7-9 land in three partitions. 2 is a database root.
	var evs []trace.Event
	for oid := heap.OID(1); oid <= 9; oid++ {
		evs = append(evs, trace.Event{Kind: trace.KindCreate, OID: oid, Size: 10_000, NFields: 4})
	}
	evs = append(evs, root(2))
	drain(t, r1, &Batch{Events: evs})
	p := func(oid heap.OID) heap.PartitionID { return r1.h.PartitionOf(r1.h.Lookup(oid)) }
	if p(1) != p(3) || p(4) != p(6) || p(7) != p(9) || p(1) == p(4) || p(4) == p(7) || p(1) == p(7) {
		t.Fatalf("placement: partitions %d %d %d / %d %d %d / %d %d %d", p(1), p(2), p(3), p(4), p(5), p(6), p(7), p(8), p(9))
	}
	if err := r1.applyDeltas(0, []delta{{target: 8}, {target: 3}, {target: 1}, {target: 5}, {target: 3}, {target: 7}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		victim heap.PartitionID
		want   []heap.OID
	}{{p(1), []heap.OID{1, 3}}, {p(4), []heap.OID{5}}, {p(7), []heap.OID{7, 8}}, {r1.h.EmptyPartition(), nil}} {
		if got := rootsOf(r1, tc.victim); !slices.Equal(got, tc.want) {
			t.Errorf("roots of partition %d = %v, want %v", tc.victim, got, tc.want)
		}
	}

	// Collect the first partition: the root 2 is copied first, then 3,
	// a remembered-set target (4 points to it), then the external root
	// 1, so the destination holds them as [2 3 1].
	victim = p(1)
	dest := r1.h.EmptyPartition()
	drain(t, r1, &Batch{Events: []trace.Event{
		{Kind: trace.KindWrite, OID: 4, Field: 1, Target: 3},
		{Kind: trace.KindWrite, OID: 2, Field: 0, Target: 4},
		{Kind: trace.KindWrite, OID: 2, Field: 0, Target: 6},
	}})
	if p(1) != dest || p(2) != dest || p(3) != dest {
		t.Fatalf("after collecting partition %d: 1, 2, 3 in partitions %d %d %d, want %d", victim, p(1), p(2), p(3), dest)
	}
	var resident []heap.OID
	for _, s := range r1.h.Partition(dest).Slots() {
		resident = append(resident, r1.h.OID(s))
	}
	if !slices.Equal(resident, []heap.OID{2, 3, 1}) {
		t.Fatalf("destination residents %v, want [2 3 1]", resident)
	}
	if got := rootsOf(r1, dest); !slices.Equal(got, []heap.OID{1, 3}) {
		t.Errorf("roots of the destination = %v, want [1 3]", got)
	}
}

// TestLateAddCountsUntilRemoved: an add delta whose target was reclaimed
// before the exchange delivered it is counted by OID in late, never on
// the slot the target left (which a new object now holds), and counts
// in ExternalRefs until its remove retracts it without an underflow.
func TestLateAddCountsUntilRemoved(t *testing.T) {
	var victim heap.PartitionID
	eng := newDirectedEngine(t, &victim)
	r1 := eng.runners[1]
	child := create(2)
	child.Parent = 1
	drain(t, r1, &Batch{Events: []trace.Event{create(1), root(1), child}})
	slot := r1.h.Lookup(2)
	victim = r1.h.PartitionOf(slot)
	// Overwriting 1.0 strands 2, and the collection reclaims it; 3 then
	// takes its slot.
	drain(t, r1, &Batch{Events: []trace.Event{{Kind: trace.KindWrite, OID: 1, Field: 0}, create(3)}})
	if r1.h.Contains(2) || r1.h.Lookup(3) != slot {
		t.Fatalf("object 2 resident %v, object 3 in slot %d, want reclaimed and slot %d", r1.h.Contains(2), r1.h.Lookup(3), slot)
	}

	if err := r1.applyDeltas(0, []delta{{target: 2}}); err != nil {
		t.Fatal(err)
	}
	if r1.late[2] != 1 || count(r1.xin, slot) != 0 {
		t.Fatalf("late add: late %v, slot count %d; want late[2] = 1 and the slot untouched", r1.late, count(r1.xin, slot))
	}
	var refs []string
	eng.ExternalRefs(1, func(local heap.OID, n int) { refs = append(refs, fmt.Sprintf("%d:%d", local, n)) })
	if !slices.Equal(refs, []string{"2:1"}) || r1.externalRefs() != 1 {
		t.Fatalf("ExternalRefs %v, count %d; want [2:1] and 1", refs, r1.externalRefs())
	}
	if err := r1.applyDeltas(0, []delta{{target: 2, remove: true}}); err != nil {
		t.Fatalf("the late add's remove: %v", err)
	}
	if len(r1.late) != 0 || r1.externalRefs() != 0 {
		t.Fatalf("after the remove: late %v, %d external refs", r1.late, r1.externalRefs())
	}
}

// TestRecycledSlotStartsClean: a source that held foreign references
// and an object that held external ones both die in collections, and
// the objects that reuse their slots start with zero counts.
func TestRecycledSlotStartsClean(t *testing.T) {
	var victim heap.PartitionID
	eng := newDirectedEngine(t, &victim)
	r0, r1 := eng.runners[0], eng.runners[1]
	child := create(2)
	child.Parent = 1
	drain(t, r1, &Batch{Events: []trace.Event{create(1), root(1), child}})
	drain(t, r0, &Batch{
		Events: []trace.Event{
			create(1), root(1), child,
			{Kind: trace.KindWrite, OID: 2, Field: 2},
			{Kind: trace.KindWrite, OID: 2, Field: 3},
		},
		Foreign: []ForeignWrite{{Pos: 3, Shard: 1, Target: 2}, {Pos: 4, Shard: 1, Target: 2}},
	})
	if err := eng.exchange(); err != nil {
		t.Fatal(err)
	}
	src, dst := r0.h.Lookup(2), r1.h.Lookup(2)
	if count(r0.foutCount, src) != 2 || count(r1.xin, dst) != 2 {
		t.Fatalf("counts %d and %d, want 2 and 2", count(r0.foutCount, src), count(r1.xin, dst))
	}

	// Shard 0's source dies: its foutCount is zeroed and its references
	// retracted, which the exchange delivers to shard 1.
	victim = r0.h.PartitionOf(src)
	drain(t, r0, &Batch{Events: []trace.Event{{Kind: trace.KindWrite, OID: 1, Field: 0}, create(3)}})
	if err := eng.exchange(); err != nil {
		t.Fatal(err)
	}
	if r0.h.Lookup(3) != src || count(r0.foutCount, src) != 0 || len(r0.fout) != 0 {
		t.Fatalf("slot %d reused by %d with foutCount %d, fout %v", src, r0.h.Lookup(3), count(r0.foutCount, src), r0.fout)
	}
	if count(r1.xin, dst) != 0 {
		t.Fatalf("shard 1 count %d after the retraction, want 0", count(r1.xin, dst))
	}
	// Shard 1's target, no longer referenced, dies the same way.
	victim = r1.h.PartitionOf(dst)
	drain(t, r1, &Batch{Events: []trace.Event{{Kind: trace.KindWrite, OID: 1, Field: 0}, create(3)}})
	if r1.h.Lookup(3) != dst || count(r1.xin, dst) != 0 || r1.externalRefs() != 0 {
		t.Fatalf("slot %d reused by %d with count %d, %d external refs", dst, r1.h.Lookup(3), count(r1.xin, dst), r1.externalRefs())
	}
}

// crossShardEngine builds a 2-shard engine where shard 0's object 1
// stores a reference to shard 1's object 1 in field 2, and then, when
// retract is set, overwrites it with nil. The deltas stay queued for the
// next exchange.
func crossShardEngine(t *testing.T, retract bool) *Engine {
	t.Helper()
	eng := newBarrierEngine(t)
	r0, r1 := eng.runners[0], eng.runners[1]
	drain(t, r1, &Batch{Events: []trace.Event{create(1), root(1)}})
	evs := []trace.Event{create(1), root(1), {Kind: trace.KindWrite, OID: 1, Field: 2}}
	if retract {
		evs = append(evs, trace.Event{Kind: trace.KindWrite, OID: 1, Field: 2})
	}
	drain(t, r0, &Batch{Events: evs, Foreign: []ForeignWrite{{Pos: 2, Shard: 1, Target: 1}}})
	return eng
}

// TestCheckExternalRefsNamesMismatch injects faults into the queued
// deltas before the exchange — a dropped remove, a duplicated add — and
// requires CheckExternalRefs to name the receiving shard and local OID;
// the same engines with their deltas intact pass.
func TestCheckExternalRefsNamesMismatch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		retract bool
		fault   func(ds []delta) []delta
		want    string
	}{
		{"dropped remove", true, func(ds []delta) []delta { return ds[:1] },
			"shard 1: local OID 1 has 1 external references, the other shards' foreign-out tables hold 0"},
		{"duplicated add", false, func(ds []delta) []delta { return append(ds, ds[0]) },
			"shard 1: local OID 1 has 2 external references, the other shards' foreign-out tables hold 1"},
	} {
		intact := crossShardEngine(t, tc.retract)
		if err := intact.exchange(); err != nil {
			t.Fatal(err)
		}
		if err := intact.CheckExternalRefs(); err != nil {
			t.Errorf("%s: intact deltas: %v", tc.name, err)
		}
		eng := crossShardEngine(t, tc.retract)
		eng.runners[0].out[1] = tc.fault(eng.runners[0].out[1])
		if err := eng.exchange(); err != nil {
			t.Fatal(err)
		}
		if err := eng.CheckExternalRefs(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: CheckExternalRefs = %v, want %q", tc.name, err, tc.want)
		}
	}
}
