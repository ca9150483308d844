package shard_test

import (
	"math/rand"
	"reflect"
	"testing"

	"odbgc/internal/check"
	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/remset"
	"odbgc/internal/shard"
	"odbgc/internal/sim"
	"odbgc/internal/trace"
)

// externalRefs reads one shard's external reference counts into a map.
func externalRefs(eng *shard.Engine, s int) map[heap.OID]int {
	got := map[heap.OID]int{}
	eng.ExternalRefs(s, func(local heap.OID, refs int) { got[local] = refs })
	return got
}

// TestForeignUnionMatchesExternalRefs is the cross-shard remembered-set
// property on a generated workload with deletions: after the final
// exchange, each shard's external reference counts must equal the union
// of what every other shard's foreign-out table says it sent — through
// overwrites, subtree deletions, and collector discards
// (Engine.CheckExternalRefs). Each shard's local remembered sets must
// also pass their own audit.
func TestForeignUnionMatchesExternalRefs(t *testing.T) {
	rt := testTrace(t, 21)
	const shards = 4
	eng, err := shard.New(shard.Config{
		Shards:      shards,
		EpochEvents: 1 << 12,
		Sim:         testSimCfg(core.NameMutatedPartition),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(replayOf(rt))
	if err != nil {
		t.Fatal(err)
	}
	if res.ForeignWrites == 0 {
		t.Fatal("workload produced no foreign writes; property vacuous")
	}
	if res.Collections == 0 {
		t.Fatal("no collections ran; the discard path is untested")
	}

	refs := 0
	for s := 0; s < shards; s++ {
		refs += len(externalRefs(eng, s))
	}
	if refs == 0 {
		t.Fatal("no shard holds an external reference at the end; property vacuous")
	}
	if err := eng.CheckExternalRefs(); err != nil {
		t.Error(err)
	}
	for s := 0; s < shards; s++ {
		if err := eng.Sim(s).Remset().CheckInvariants(); err != nil {
			t.Errorf("shard %d remembered-set audit: %v", s, err)
		}
	}
}

// remsetEntries flattens a simulator's remembered sets into their
// deterministic enumeration order, each target named by its OID.
type remsetEntry struct {
	p      heap.PartitionID
	e      remset.Entry
	target heap.OID
}

func remsetEntries(s *sim.Sim) []remsetEntry {
	var out []remsetEntry
	s.Remset().Entries(func(p heap.PartitionID, e remset.Entry, target heap.Slot) {
		out = append(out, remsetEntry{p, e, s.Heap().OID(target)})
	})
	return out
}

// TestSingleShardRemsetUnion is the literal remembered-set equality leg:
// with one shard there is no cross-shard traffic, so the engine's
// remembered sets must equal a plain simulator's entry for entry.
func TestSingleShardRemsetUnion(t *testing.T) {
	rt := testTrace(t, 31)
	cfg := testSimCfg(core.NameMutatedPartition)
	eng, err := shard.New(shard.Config{Shards: 1, EpochEvents: 1 << 12, Sim: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(replayOf(rt)); err != nil {
		t.Fatal(err)
	}
	plain, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Replay(plain, nil); err != nil {
		t.Fatal(err)
	}
	a, b := remsetEntries(eng.Sim(0)), remsetEntries(plain)
	if len(a) == 0 {
		t.Fatal("empty remembered sets; property vacuous")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("single-shard remembered sets diverge from the plain simulator's: %d vs %d entries", len(a), len(b))
	}
}

// TestHandBuiltCrossShardGraph replays a randomized, fully reachable
// hand-built trace and checks the engine's foreign-out tables and
// external reference counts against a brute-force scan of the model
// pointer graph mapped through an independent router. Nothing ever dies,
// so the cross-shard bookkeeping must equal the model exactly — through
// overwrites, creates into previously-foreign fields, and the
// collections the overwrite churn triggers.
func TestHandBuiltCrossShardGraph(t *testing.T) {
	type modelLoc struct {
		src   heap.OID
		field int
	}
	rng := rand.New(rand.NewSource(42))
	const shards = 4

	var evs []trace.Event
	var nodes []heap.OID
	loc := map[modelLoc]heap.OID{}
	next := heap.OID(1)
	newNode := func(parent heap.OID, pf int) heap.OID {
		oid := next
		next++
		e := trace.Event{Kind: trace.KindCreate, OID: oid, Size: 128 + int64(rng.Intn(4))*16, NFields: 4}
		if parent != heap.NilOID {
			e.Parent = parent
			e.ParentField = pf
			loc[modelLoc{parent, pf}] = oid
		}
		evs = append(evs, e)
		nodes = append(nodes, oid)
		return oid
	}

	// Build ten trees: every node hangs off fields 0/1 of an earlier node
	// of the same tree, so the whole forest stays reachable forever.
	var freeSlots []modelLoc
	for tr := 0; tr < 10; tr++ {
		root := newNode(heap.NilOID, 0)
		evs = append(evs, trace.Event{Kind: trace.KindRoot, OID: root})
		free := []modelLoc{{root, 0}, {root, 1}}
		for n := 6 + rng.Intn(8); n > 0 && len(free) > 0; n-- {
			i := rng.Intn(len(free))
			slot := free[i]
			free[i] = free[len(free)-1]
			free = free[:len(free)-1]
			child := newNode(slot.src, slot.field)
			free = append(free, modelLoc{child, 0}, modelLoc{child, 1})
		}
		freeSlots = append(freeSlots, free...)
	}

	// Churn: random pointer writes into the dense fields (2, 3) and into
	// never-filled tree slots, with overwrites and nil stores mixed in;
	// the slots written here become candidates for the creating-store
	// overwrite below.
	var written []modelLoc
	for i := 0; i < 400; i++ {
		var l modelLoc
		if len(freeSlots) > 0 && rng.Intn(4) == 0 {
			j := rng.Intn(len(freeSlots))
			l = freeSlots[j]
			freeSlots[j] = freeSlots[len(freeSlots)-1]
			freeSlots = freeSlots[:len(freeSlots)-1]
			written = append(written, l)
		} else {
			l = modelLoc{nodes[rng.Intn(len(nodes))], 2 + rng.Intn(2)}
		}
		target := heap.NilOID
		if rng.Intn(10) != 0 {
			target = nodes[rng.Intn(len(nodes))]
		}
		evs = append(evs, trace.Event{Kind: trace.KindWrite, OID: l.src, Field: l.field, Target: target})
		if target == heap.NilOID {
			delete(loc, l)
		} else {
			loc[l] = target
		}
		if rng.Intn(3) == 0 {
			evs = append(evs, trace.Event{Kind: trace.KindRead, OID: nodes[rng.Intn(len(nodes))]})
		}
	}

	// Creating stores into slots that may hold foreign references.
	for i := 0; i < len(written) && i < 20; i++ {
		newNode(written[i].src, written[i].field)
	}

	replay := func(sink trace.Sink) error {
		for _, e := range evs {
			if err := sink.Emit(e); err != nil {
				return err
			}
		}
		return nil
	}

	// Mirror router: routes the same creates in the same order, so it
	// reproduces the engine's OID mapping independently.
	mirror, err := shard.NewRouter(shards, shard.RoundRobin, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		if _, err := mirror.Route(e); err != nil {
			t.Fatalf("mirror routing: %v", err)
		}
	}
	type foreignLoc struct {
		src   heap.OID
		field int
	}
	type foreignRef struct {
		shard  int
		target heap.OID
	}
	wantFout := make([]map[foreignLoc]foreignRef, shards)
	wantXin := make([]map[heap.OID]int, shards)
	for s := range wantFout {
		wantFout[s] = map[foreignLoc]foreignRef{}
		wantXin[s] = map[heap.OID]int{}
	}
	for l, target := range loc {
		ss, slocal, err := mirror.Lookup(l.src)
		if err != nil {
			t.Fatal(err)
		}
		ts, tlocal, err := mirror.Lookup(target)
		if err != nil {
			t.Fatal(err)
		}
		if ss == ts {
			continue
		}
		wantFout[ss][foreignLoc{slocal, l.field}] = foreignRef{ts, tlocal}
		wantXin[ts][tlocal]++
	}

	for _, parallel := range []bool{false, true} {
		eng, err := shard.New(shard.Config{
			Shards:      shards,
			EpochEvents: 64,
			Parallel:    parallel,
			Sim:         testSimCfg(core.NameMutatedPartition),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(replay)
		if err != nil {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		if res.ForeignWrites == 0 {
			t.Fatal("hand-built trace produced no foreign writes")
		}
		for s := 0; s < shards; s++ {
			got := map[foreignLoc]foreignRef{}
			eng.ForeignRefs(s, func(src heap.OID, field int, tshard int, target heap.OID) {
				got[foreignLoc{src, field}] = foreignRef{tshard, target}
			})
			if !reflect.DeepEqual(got, wantFout[s]) {
				t.Errorf("parallel=%v shard %d foreign-out diverges from the model:\ngot  %v\nwant %v",
					parallel, s, got, wantFout[s])
			}
			if got := externalRefs(eng, s); !reflect.DeepEqual(got, wantXin[s]) {
				t.Errorf("parallel=%v shard %d external refs diverge from the model:\ngot  %v\nwant %v",
					parallel, s, got, wantXin[s])
			}
		}
	}

	// The same trace through one shard: routing is the identity, nothing
	// is foreign, and the run must agree with a plain simulator on it.
	eng, err := shard.New(shard.Config{Shards: 1, EpochEvents: 64, Sim: testSimCfg(core.NameMutatedPartition)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(replay)
	if err != nil {
		t.Fatal(err)
	}
	if res.ForeignWrites != 0 {
		t.Errorf("single shard reports %d foreign writes", res.ForeignWrites)
	}
	plain, err := sim.New(testSimCfg(core.NameMutatedPartition))
	if err != nil {
		t.Fatal(err)
	}
	if err := replay(plain); err != nil {
		t.Fatal(err)
	}
	if err := check.DiffResults("sharded(1)", "plain sim", res.PerShard[0].Result, plain.Finish()); err != nil {
		t.Fatal(err)
	}
}
