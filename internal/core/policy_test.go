package core

import (
	"math/rand"
	"strings"
	"testing"

	"odbgc/internal/heap"
)

// testEnv builds a heap with nParts data partitions (each holding one
// 100-byte object so it is a candidate) plus the reserved empty partition.
// Object i+1 lives in partition... objects are forced one per partition by
// sizing them near the partition size.
func testEnv(t *testing.T, nParts int) (*Env, []heap.OID) {
	t.Helper()
	cfg := heap.Config{PageSize: 512, PartitionPages: 1, ReserveEmpty: true}
	h, err := heap.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var oids []heap.OID
	for i := 0; i < nParts; i++ {
		oid := heap.OID(i + 1)
		// Each object consumes most of a partition, forcing one per
		// partition.
		if _, _, err := h.Alloc(oid, cfg.PartitionBytes()-50, 4, heap.NilSlot); err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	env := &Env{Heap: h, Oracle: heap.NewOracle(h)}
	return env, oids
}

func part(t *testing.T, env *Env, oid heap.OID) heap.PartitionID {
	t.Helper()
	return env.Heap.PartitionOf(env.Heap.Lookup(oid))
}

func TestCandidatesExcludeEmptyAndUnused(t *testing.T) {
	env, _ := testEnv(t, 3)
	cands := env.Candidates()
	if len(cands) != 3 {
		t.Fatalf("candidates = %v, want 3 used partitions", cands)
	}
	for _, p := range cands {
		if p == env.Heap.EmptyPartition() {
			t.Fatal("reserved empty partition is a candidate")
		}
	}
}

func TestNewByName(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range Names() {
		p, err := New(name, rng)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := New("Bogus", rng); err == nil {
		t.Error("New(Bogus): want error")
	}
	if _, err := New(NameRandom, nil); err == nil || !strings.Contains(err.Error(), NameRandom) {
		t.Errorf("New(%s, nil) = %v, want an error naming the policy", NameRandom, err)
	}
}

func TestPaperNamesAreRegistered(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := PaperNames()
	if len(names) != 6 {
		t.Fatalf("PaperNames has %d entries, want 6", len(names))
	}
	for _, n := range names {
		if _, err := New(n, rng); err != nil {
			t.Errorf("paper policy %q not constructible: %v", n, err)
		}
	}
}

func TestMutatedPartitionCountsStoresIntoSourcePartition(t *testing.T) {
	env, oids := testEnv(t, 3)
	m := NewMutatedPartition()
	// Two stores performed by the object in partition of oids[1], one by
	// oids[0]'s.
	p0, p1 := part(t, env, oids[0]), part(t, env, oids[1])
	m.PointerStore(StoreContext{Src: oids[1], SrcPart: p1, New: oids[2]})
	m.PointerStore(StoreContext{Src: oids[1], SrcPart: p1, New: oids[0], Creation: true})
	m.PointerStore(StoreContext{Src: oids[0], SrcPart: p0, New: oids[2]})
	got, ok := m.Select(env)
	if !ok || got != p1 {
		t.Fatalf("Select = (%v, %v), want (%v, true)", got, ok, p1)
	}
	// Data stores must NOT count (the enhancement).
	m.DataStore(p0)
	m.DataStore(p0)
	if got, _ := m.Select(env); got != p1 {
		t.Fatal("data stores influenced MutatedPartition")
	}
}

func TestMutatedObjectYNYCountsDataStores(t *testing.T) {
	env, oids := testEnv(t, 3)
	m := NewMutatedObjectYNY()
	p0, p1 := part(t, env, oids[0]), part(t, env, oids[1])
	m.PointerStore(StoreContext{Src: oids[1], SrcPart: p1, New: oids[2]})
	m.DataStore(p0)
	m.DataStore(p0)
	got, ok := m.Select(env)
	if !ok || got != p0 {
		t.Fatalf("Select = (%v, %v), want (%v, true): YNY must count data stores", got, ok, p0)
	}
}

func TestUpdatedPointerCountsOverwrittenTargets(t *testing.T) {
	env, oids := testEnv(t, 3)
	u := NewUpdatedPointer()
	p1, p2 := part(t, env, oids[1]), part(t, env, oids[2])
	// Creation stores (no old value) never count.
	u.PointerStore(StoreContext{Src: oids[0], SrcPart: part(t, env, oids[0]), New: oids[1], Creation: true})
	if got, _ := u.Select(env); u.Score(got) != 0 {
		t.Fatal("creation store counted by UpdatedPointer")
	}
	// Overwrites count against the OLD target's partition, regardless of
	// writer or new value.
	u.PointerStore(StoreContext{Src: oids[0], SrcPart: part(t, env, oids[0]), Old: oids[2], OldPart: p2, OldWeight: 5})
	u.PointerStore(StoreContext{Src: oids[1], SrcPart: p1, Old: oids[2], OldPart: p2, OldWeight: 3, New: oids[0]})
	u.PointerStore(StoreContext{Src: oids[2], SrcPart: p2, Old: oids[1], OldPart: p1, OldWeight: 2})
	got, ok := u.Select(env)
	if !ok || got != p2 {
		t.Fatalf("Select = (%v, %v), want (%v, true)", got, ok, p2)
	}
}

func TestWeightedPointerWeighsByRootDistance(t *testing.T) {
	env, oids := testEnv(t, 3)
	w := NewWeightedPointer()
	p1, p2 := part(t, env, oids[1]), part(t, env, oids[2])
	// Many overwrites of a deep (leaf-ish) pointer into p1...
	for i := 0; i < 100; i++ {
		w.PointerStore(StoreContext{Src: oids[0], Old: oids[1], OldPart: p1, OldWeight: 16})
	}
	// ...are outweighed by a single overwrite of a near-root pointer into p2.
	w.PointerStore(StoreContext{Src: oids[0], Old: oids[2], OldPart: p2, OldWeight: 2})
	got, ok := w.Select(env)
	if !ok || got != p2 {
		t.Fatalf("Select = (%v, %v), want (%v, true)", got, ok, p2)
	}
}

func TestExponentialWeight(t *testing.T) {
	cases := map[uint8]float64{
		1:  32768,
		2:  16384, // the paper's worked example: 2^(16-2)
		15: 2,
		16: 1,
	}
	for w, want := range cases {
		if got := ExponentialWeight(w); got != want {
			t.Errorf("ExponentialWeight(%d) = %v, want %v", w, got, want)
		}
	}
	// Out-of-range weights clamp.
	if ExponentialWeight(0) != 32768 {
		t.Error("weight 0 should clamp to 1")
	}
	if ExponentialWeight(40) != 1 {
		t.Error("weight above MaxWeight should clamp to 16")
	}
}

func TestRandomSelectsOnlyCandidates(t *testing.T) {
	env, _ := testEnv(t, 4)
	r := NewRandom(rand.New(rand.NewSource(7)))
	seen := make(map[heap.PartitionID]bool)
	for i := 0; i < 200; i++ {
		p, ok := r.Select(env)
		if !ok {
			t.Fatal("Select declined with candidates available")
		}
		if p == env.Heap.EmptyPartition() {
			t.Fatal("Random selected the reserved empty partition")
		}
		seen[p] = true
	}
	if len(seen) != 4 {
		t.Fatalf("200 draws hit %d of 4 candidates", len(seen))
	}
}

func TestRandomIsDeterministicPerSeed(t *testing.T) {
	env, _ := testEnv(t, 4)
	a := NewRandom(rand.New(rand.NewSource(42)))
	b := NewRandom(rand.New(rand.NewSource(42)))
	for i := 0; i < 50; i++ {
		pa, _ := a.Select(env)
		pb, _ := b.Select(env)
		if pa != pb {
			t.Fatalf("draw %d: %v != %v", i, pa, pb)
		}
	}
}

func TestMostGarbageUsesOracle(t *testing.T) {
	env, oids := testEnv(t, 3)
	// Root the first two objects; the third is garbage.
	env.Heap.AddRoot(env.Heap.Lookup(oids[0]))
	env.Heap.AddRoot(env.Heap.Lookup(oids[1]))
	m := NewMostGarbage()
	got, ok := m.Select(env)
	if !ok || got != part(t, env, oids[2]) {
		t.Fatalf("Select = (%v, %v), want garbage partition %v", got, ok, part(t, env, oids[2]))
	}
}

func TestNoCollectionAlwaysDeclines(t *testing.T) {
	env, _ := testEnv(t, 3)
	n := NewNoCollection()
	if _, ok := n.Select(env); ok {
		t.Fatal("NoCollection agreed to collect")
	}
}

func TestCollectedResetsCounter(t *testing.T) {
	env, oids := testEnv(t, 2)
	u := NewUpdatedPointer()
	p0, p1 := part(t, env, oids[0]), part(t, env, oids[1])
	for i := 0; i < 5; i++ {
		u.PointerStore(StoreContext{Src: oids[1], Old: oids[0], OldPart: p0})
	}
	u.PointerStore(StoreContext{Src: oids[0], Old: oids[1], OldPart: p1})
	if got, _ := u.Select(env); got != p0 {
		t.Fatalf("pre-reset Select = %v, want %v", got, p0)
	}
	u.Collected(p0, env.Heap.EmptyPartition())
	if got, _ := u.Select(env); got != p1 {
		t.Fatalf("post-reset Select = %v, want %v", got, p1)
	}
}

func TestSelectOnEmptyDatabaseDeclines(t *testing.T) {
	cfg := heap.Config{PageSize: 512, PartitionPages: 1, ReserveEmpty: true}
	h, err := heap.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{Heap: h, Oracle: heap.NewOracle(h)}
	rng := rand.New(rand.NewSource(1))
	for _, name := range Names() {
		p, err := New(name, rng)
		if err != nil {
			t.Fatal(err)
		}
		if victim, ok := p.Select(env); ok {
			t.Errorf("%s selected %v on an empty database", name, victim)
		}
	}
}

func TestTieBreaksTowardLowestPartition(t *testing.T) {
	env, _ := testEnv(t, 3)
	m := NewMutatedPartition()
	if got, ok := m.Select(env); !ok || got != env.Candidates()[0] {
		t.Fatalf("all-zero counters: Select = (%v, %v), want lowest candidate", got, ok)
	}
}
