package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"odbgc/internal/heap"
)

func newWeightHeap(t *testing.T, n int) *heap.Heap {
	t.Helper()
	h, err := heap.New(heap.Config{PageSize: 8192, PartitionPages: 8, ReserveEmpty: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, _, err := h.Alloc(heap.OID(i), 100, 4, heap.NilSlot); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// link stores target into src's field and runs weight propagation, the way
// the mutator's write barrier does.
func link(h *heap.Heap, src heap.OID, f int, target heap.OID) {
	s, ts := h.Lookup(src), h.Lookup(target)
	h.WriteField(s, f, ts)
	PropagateStore(h, s, ts)
}

func TestPaperFigure3Weights(t *testing.T) {
	// Figure 3: root→A; A→B; B→C; root→D... the figure shows
	// w(A)=1, w(B)=2, w(E)=2, w(C)=3, w(D)=3, w(F)=3 for a small DAG.
	// We reproduce an equivalent shape:
	//   root -> A(1); A -> B(2); A -> E(2); B -> C(3); E -> D(3); E -> F(3)
	h := newWeightHeap(t, 6)
	const (
		A heap.OID = 1
		B heap.OID = 2
		C heap.OID = 3
		D heap.OID = 4
		E heap.OID = 5
		F heap.OID = 6
	)
	h.AddRoot(h.Lookup(A))
	PropagateRoot(h, h.Lookup(A))
	link(h, A, 0, B)
	link(h, A, 1, E)
	link(h, B, 0, C)
	link(h, E, 0, D)
	link(h, E, 1, F)

	want := map[heap.OID]uint8{A: 1, B: 2, E: 2, C: 3, D: 3, F: 3}
	for oid, w := range want {
		if got := h.Weight(h.Lookup(oid)); got != w {
			t.Errorf("weight(%d) = %d, want %d", oid, got, w)
		}
	}
}

func TestWeightImprovementPropagatesTransitively(t *testing.T) {
	h := newWeightHeap(t, 4)
	// Chain 1 -> 2 -> 3 -> 4 built leaf-first: all weights stay MaxWeight
	// until the root is attached, then the whole chain relaxes at once.
	link(h, 3, 0, 4)
	link(h, 2, 0, 3)
	link(h, 1, 0, 2)
	for oid := heap.OID(1); oid <= 4; oid++ {
		if got := h.Weight(h.Lookup(oid)); got != heap.MaxWeight {
			t.Fatalf("pre-root weight(%d) = %d, want %d", oid, got, heap.MaxWeight)
		}
	}
	h.AddRoot(h.Lookup(1))
	PropagateRoot(h, h.Lookup(1))
	for i, want := range []uint8{1, 2, 3, 4} {
		if got := h.Weight(h.Lookup(heap.OID(i + 1))); got != want {
			t.Errorf("weight(%d) = %d, want %d", i+1, got, want)
		}
	}
}

func TestWeightNeverIncreasesOnEdgeDeletion(t *testing.T) {
	h := newWeightHeap(t, 3)
	h.AddRoot(h.Lookup(1))
	PropagateRoot(h, h.Lookup(1))
	link(h, 1, 0, 2)
	link(h, 2, 0, 3)
	if h.Weight(h.Lookup(3)) != 3 {
		t.Fatalf("setup: weight(3) = %d", h.Weight(h.Lookup(3)))
	}
	// Deleting the only path to 3 leaves its weight untouched (heuristic).
	h.WriteField(h.Lookup(2), 0, heap.NilSlot)
	PropagateStore(h, h.Lookup(2), h.Lookup(heap.NilOID))
	if got := h.Weight(h.Lookup(3)); got != 3 {
		t.Errorf("weight(3) after deletion = %d, want 3 (weights never rise)", got)
	}
}

func TestWeightCapsAtMaxWeight(t *testing.T) {
	n := heap.MaxWeight + 5
	h := newWeightHeap(t, n)
	h.AddRoot(h.Lookup(1))
	PropagateRoot(h, h.Lookup(1))
	for i := 1; i < n; i++ {
		link(h, heap.OID(i), 0, heap.OID(i+1))
	}
	if got := h.Weight(h.Lookup(heap.OID(n))); got != heap.MaxWeight {
		t.Errorf("deep object weight = %d, want cap %d", got, heap.MaxWeight)
	}
	// Every weight along the chain is min(depth+1, MaxWeight).
	for i := 1; i <= n; i++ {
		want := uint8(i)
		if i > heap.MaxWeight {
			want = heap.MaxWeight
		}
		if got := h.Weight(h.Lookup(heap.OID(i))); got != want {
			t.Errorf("weight(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestWeightCycleTerminates(t *testing.T) {
	h := newWeightHeap(t, 3)
	h.AddRoot(h.Lookup(1))
	PropagateRoot(h, h.Lookup(1))
	link(h, 1, 0, 2)
	link(h, 2, 0, 3)
	link(h, 3, 0, 1) // cycle back to the root
	if got := h.Weight(h.Lookup(1)); got != 1 {
		t.Errorf("root weight raised by cycle: %d", got)
	}
	if got := h.Weight(h.Lookup(3)); got != 3 {
		t.Errorf("weight(3) = %d, want 3", got)
	}
}

func TestPropagateStoreNilAndMissingTargets(t *testing.T) {
	h := newWeightHeap(t, 1)
	PropagateStore(h, h.Lookup(1), h.Lookup(heap.NilOID)) // must not panic
	PropagateStore(h, h.Lookup(1), h.Lookup(99))          // missing target: ignored
	PropagateStore(h, h.Lookup(99), h.Lookup(1))          // missing source: ignored
	PropagateRoot(h, h.Lookup(99))                        // missing root: ignored
}

// TestWeightsEqualBFSDepthUnderMonotoneConstruction: when a graph is built
// top-down (every object linked only after its parent is connected to the
// root), the maintained weight equals the true BFS distance from the root
// set plus one, capped at MaxWeight.
func TestWeightsEqualBFSDepthUnderMonotoneConstruction(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%50) + 2
		h, err := heap.New(heap.Config{PageSize: 8192, PartitionPages: 8, ReserveEmpty: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= count; i++ {
			if _, _, err := h.Alloc(heap.OID(i), 100, 4, heap.NilSlot); err != nil {
				t.Fatal(err)
			}
		}
		h.AddRoot(h.Lookup(1))
		PropagateRoot(h, h.Lookup(1))
		// Attach each object i (2..count) to a random already-attached
		// object with a free field; also add extra random edges among
		// attached objects (still monotone: sources are attached).
		attached := []heap.OID{1}
		for i := 2; i <= count; i++ {
			src := attached[rng.Intn(len(attached))]
			f := rng.Intn(4)
			if h.Fields(h.Lookup(src))[f] != heap.NilSlot {
				continue // field occupied; object stays detached (fine)
			}
			link(h, src, f, heap.OID(i))
			attached = append(attached, heap.OID(i))
		}
		for e := 0; e < count; e++ {
			src := attached[rng.Intn(len(attached))]
			dst := attached[rng.Intn(len(attached))]
			f := rng.Intn(4)
			if h.Fields(h.Lookup(src))[f] != heap.NilSlot {
				continue
			}
			link(h, src, f, dst)
		}

		// Brute-force BFS depth from the root set.
		depth := map[heap.OID]int{1: 1}
		queue := []heap.OID{1}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, fs := range h.Fields(h.Lookup(cur)) {
				fld := h.OID(fs)
				if fld == heap.NilOID {
					continue
				}
				if _, ok := depth[fld]; ok {
					continue
				}
				depth[fld] = depth[cur] + 1
				queue = append(queue, fld)
			}
		}
		for oid, d := range depth {
			want := uint8(min(d, heap.MaxWeight))
			if got := h.Weight(h.Lookup(oid)); got != want {
				t.Errorf("seed %d: weight(%d) = %d, want %d", seed, oid, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
