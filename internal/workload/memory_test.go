package workload

import (
	"testing"
	"unsafe"

	"odbgc/internal/trace"
)

// ownedBytes is the generator's own state, counted from slice
// capacities: the slot index, the node slab, the traversal scratch, and
// the trees with their sampling pools and Fenwick index.
func ownedBytes(g *Generator) int64 {
	b := int64(unsafe.Sizeof(g.slot[0]))*int64(cap(g.slot)) +
		int64(unsafe.Sizeof(node{}))*int64(cap(g.slab)) +
		int64(unsafe.Sizeof(g.work[0]))*int64(cap(g.work)) +
		int64(unsafe.Sizeof(g.trees[0]))*int64(cap(g.trees)) +
		int64(unsafe.Sizeof(g.treeBIT[0]))*int64(cap(g.treeBIT))
	for _, t := range g.trees {
		b += int64(unsafe.Sizeof(*t)) + int64(unsafe.Sizeof(t.pool[0]))*int64(cap(t.pool))
	}
	return b
}

// TestGeneratorMemoryTracksAliveNodes generates one workload at two
// lengths 4× apart and bounds the generator's state by counting, not
// timing: the longer run may hold at most 8 more bytes per additional
// OID, and at every event the node slab's capacity stays within twice
// the peak alive node count (plus the slab's floor). A store with an
// entry for every OID ever issued fails the first bound at once.
func TestGeneratorMemoryTracksAliveNodes(t *testing.T) {
	const maxBytesPerOID = 8
	cfg := DefaultConfig()
	cfg.TargetLiveBytes = 1_000_000
	run := func(alloc int64) (oids, bytes int64) {
		cfg := cfg
		cfg.TotalAllocBytes = alloc
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		peak := 0
		if _, err := g.Run(sinkFunc(func(trace.Event) error {
			peak = max(peak, g.totalAlive)
			if c := cap(g.slab); c > 2*peak+minSlab {
				t.Fatalf("alloc %d: slab capacity %d exceeds twice the peak alive count %d plus %d", alloc, c, peak, minSlab)
			}
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		return int64(len(g.slot)), ownedBytes(g)
	}
	shortOIDs, shortBytes := run(10_000_000)
	longOIDs, longBytes := run(40_000_000)
	perOID := float64(longBytes-shortBytes) / float64(longOIDs-shortOIDs)
	t.Logf("%d OIDs: %d bytes; %d OIDs: %d bytes; %.2f bytes per additional OID",
		shortOIDs, shortBytes, longOIDs, longBytes, perOID)
	if perOID > maxBytesPerOID {
		t.Fatalf("generator state grew %.2f bytes per additional OID, want at most %d", perOID, maxBytesPerOID)
	}
}

// TestTraversalsReuseScratch checks that a warmed generator's
// traversals allocate nothing: breadth-first ones advance through the
// generator's reused FIFO instead of a fresh, re-sliced queue per
// call, and depth-first ones recurse.
func TestTraversalsReuseScratch(t *testing.T) {
	g, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g.sink = discardSink{}
	for g.liveBytes < g.cfg.TargetLiveBytes {
		if err := g.buildTree(); err != nil {
			t.Fatal(err)
		}
	}
	trees := g.trees[:min(len(g.trees), 20)]
	allocs := testing.AllocsPerRun(20, func() {
		for _, tr := range trees {
			if err := g.traverseBreadthFirst(tr); err != nil {
				t.Fatal(err)
			}
			if err := g.traverseDepthFirst(tr, tr.root); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("traversals of %d trees: %v allocs per run, want 0", len(trees), allocs)
	}
}
