package gc

import (
	"math/rand"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/pagebuf"
	"odbgc/internal/remset"
)

// rig bundles a fully wired collector stack for tests.
type rig struct {
	h   *heap.Heap
	buf *pagebuf.Buffer
	rem *remset.Table
	pol core.Policy
	env *core.Env
	mut *Mutator
	col auditedCollector
}

// auditedCollector is a rig's collector. With a non-nil tb, every
// Collect and GlobalSweep is followed by a brute-force audit of the
// remembered sets, failing the test on any disagreement.
type auditedCollector struct {
	*Collector
	tb testing.TB
}

func (c auditedCollector) Collect() CollectionResult {
	res := c.Collector.Collect()
	c.audit("collection")
	return res
}

func (c auditedCollector) GlobalSweep() GlobalSweepResult {
	res := c.Collector.GlobalSweep()
	c.audit("global sweep")
	return res
}

func (c auditedCollector) audit(after string) {
	if c.tb == nil {
		return
	}
	if msg := c.rem.Audit(); msg != "" {
		c.tb.Fatalf("remembered sets inconsistent after %s: %s", after, msg)
	}
}

// newRig builds a rig with small partitions (pageSize 512 × 8 pages =
// 4096 bytes per partition) and the given policy.
func newRig(t *testing.T, pol core.Policy) *rig {
	t.Helper()
	h, err := heap.New(heap.Config{PageSize: 512, PartitionPages: 8, ReserveEmpty: true})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := pagebuf.New(8)
	if err != nil {
		t.Fatal(err)
	}
	rem := remset.New(h)
	env := &core.Env{Heap: h, Oracle: heap.NewOracle(h), Rand: rand.New(rand.NewSource(1))}
	return &rig{
		h: h, buf: buf, rem: rem, pol: pol, env: env,
		mut: NewMutator(h, buf, rem, pol),
		col: auditedCollector{Collector: NewCollector(h, buf, rem, pol, env), tb: t},
	}
}

func (r *rig) alloc(t *testing.T, oid heap.OID, size int64, nfields int, parent heap.OID, parentField int) {
	t.Helper()
	if err := r.mut.Alloc(oid, size, nfields, parent, parentField); err != nil {
		t.Fatalf("Alloc(%d): %v", oid, err)
	}
}

func (r *rig) write(t *testing.T, src heap.OID, f int, target heap.OID) {
	t.Helper()
	if err := r.mut.Write(src, f, target); err != nil {
		t.Fatalf("Write(%d.%d=%d): %v", src, f, target, err)
	}
}

func (r *rig) root(t *testing.T, oid heap.OID) {
	t.Helper()
	if err := r.mut.Root(oid); err != nil {
		t.Fatalf("Root(%d): %v", oid, err)
	}
}

// liveOIDs snapshots the reachable OID set.
func (r *rig) liveOIDs() map[heap.OID]bool {
	out := make(map[heap.OID]bool)
	r.env.Oracle.Live().ForEach(func(oid heap.OID) { out[oid] = true })
	return out
}

// checkNoDanglers verifies every non-nil field of every resident object
// resolves to a resident object.
func (r *rig) checkNoDanglers(t *testing.T) {
	t.Helper()
	for pid := 0; pid < r.h.NumPartitions(); pid++ {
		r.h.Partition(heap.PartitionID(pid)).Objects(func(oid heap.OID) {
			for f, target := range r.h.Get(oid).Fields {
				if target != heap.NilOID && !r.h.Contains(target) {
					t.Errorf("dangling pointer %d.%d -> %d", oid, f, target)
				}
			}
		})
	}
}
