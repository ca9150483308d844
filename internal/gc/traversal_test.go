package gc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/pagebuf"
	"odbgc/internal/remset"
)

func TestTraversalString(t *testing.T) {
	if BreadthFirst.String() != "breadth-first" || PageFirst.String() != "page-first" {
		t.Fatal("Traversal.String mismatch")
	}
	if Traversal(9).String() == "" {
		t.Fatal("unknown traversal should format")
	}
}

// TestPageFirstCopiesSameLiveSet: the traversal order must not change
// *what* survives a collection — only the order (and hence placement and
// I/O pattern) of the copies.
func TestPageFirstCopiesSameLiveSet(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		build := func(traversal Traversal) (CollectionResult, map[heap.OID]bool, *rig) {
			pol := &forcedPolicy{}
			r := newRig(t, pol)
			r.col.SetTraversal(traversal)
			rng := rand.New(rand.NewSource(seed))
			next := heap.OID(1)
			var oids []heap.OID
			for i := 0; i < 2; i++ {
				if err := r.mut.Alloc(next, 100, 3, heap.NilOID, 0); err != nil {
					t.Fatal(err)
				}
				if err := r.mut.Root(next); err != nil {
					t.Fatal(err)
				}
				oids = append(oids, next)
				next++
			}
			for i := 0; i < int(nOps)+10; i++ {
				parent := oids[rng.Intn(len(oids))]
				f := rng.Intn(3)
				if r.field(parent, f) != heap.NilOID {
					if rng.Intn(3) == 0 {
						if err := r.mut.Write(parent, f, heap.NilOID); err != nil {
							t.Fatal(err)
						}
					}
					continue
				}
				if err := r.mut.Alloc(next, 100, 3, parent, f); err != nil {
					t.Fatal(err)
				}
				oids = append(oids, next)
				next++
			}
			pol.victim = 0
			res := r.col.Collect()
			live := r.liveOIDs()
			return res, live, r
		}

		resBF, liveBF, rigBF := build(BreadthFirst)
		resPF, livePF, rigPF := build(PageFirst)
		if resBF.CopiedObjects != resPF.CopiedObjects || resBF.ReclaimedBytes != resPF.ReclaimedBytes {
			t.Errorf("traversals copy different sets: BF %+v, PF %+v", resBF, resPF)
			return false
		}
		if len(liveBF) != len(livePF) {
			t.Errorf("live sets differ: %d vs %d", len(liveBF), len(livePF))
			return false
		}
		for oid := range liveBF {
			if !livePF[oid] {
				t.Errorf("object %d live under BF, dead under PF", oid)
				return false
			}
		}
		rigBF.checkNoDanglers(t)
		rigPF.checkNoDanglers(t)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPageFirstReducesReReads: on a binary tree laid out in depth-first
// order, breadth-first copy order jumps between distant pages at every
// level and re-reads them under a small buffer; page-first drains each
// page's pending objects while it is resident.
func TestPageFirstReducesReReads(t *testing.T) {
	build := func(traversal Traversal) int64 {
		pol := &forcedPolicy{}
		h, err := heap.New(heap.Config{PageSize: 512, PartitionPages: 16, ReserveEmpty: true})
		if err != nil {
			t.Fatal(err)
		}
		buf, err := pagebuf.New(3)
		if err != nil {
			t.Fatal(err)
		}
		rem := remset.New(h)
		env := &core.Env{Heap: h, Oracle: heap.NewOracle(h), Rand: rand.New(rand.NewSource(1))}
		r := &rig{
			h: h, buf: buf, rem: rem, pol: pol, env: env,
			mut: NewMutator(h, buf, rem, pol),
			col: auditedCollector{Collector: NewCollector(h, buf, rem, pol, env)},
		}
		r.col.SetTraversal(traversal)

		// A depth-6 binary tree allocated in depth-first order: BFS copy
		// order (level order) alternates across the DFS-laid-out pages.
		next := heap.OID(1)
		r.alloc(t, next, 100, 2, heap.NilOID, 0)
		r.root(t, next)
		rootOID := next
		next++
		var grow func(parent heap.OID, depth int)
		grow = func(parent heap.OID, depth int) {
			if depth == 0 {
				return
			}
			for f := 0; f < 2; f++ {
				oid := next
				next++
				r.alloc(t, oid, 100, 2, parent, f)
				grow(oid, depth-1)
			}
		}
		grow(rootOID, 6)

		pol.victim = 0
		r.col.Collect()
		return r.buf.Stats().GC().ReadIOs
	}
	bf := build(BreadthFirst)
	pf := build(PageFirst)
	if pf > bf {
		t.Fatalf("page-first read I/Os (%d) exceed breadth-first (%d)", pf, bf)
	}
	if pf == bf {
		t.Fatalf("page-first did not reduce re-reads on a DFS-laid-out tree (both %d)", bf)
	}
	t.Logf("GC read I/Os: breadth-first %d, page-first %d", bf, pf)
}
