package gc

import (
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
	if err := c.rem.CheckInvariants(); err != nil {
		c.tb.Fatalf("remembered sets inconsistent after %s: %v", after, err)
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
	env := &core.Env{Heap: h, Oracle: heap.NewOracle(h)}
	return &rig{
		h: h, buf: buf, rem: rem, pol: pol, env: env,
		mut: NewMutator(h, buf, rem, pol),
		col: auditedCollector{Collector: NewCollector(h, buf, rem, pol, env), tb: t},
	}
}

// alloc and write report whether their pointer store overwrote.
func (r *rig) alloc(t *testing.T, oid heap.OID, size int64, nfields int, parent heap.OID, parentField int) bool {
	t.Helper()
	overwrote, err := r.mut.Alloc(oid, size, nfields, parent, parentField)
	if err != nil {
		t.Fatalf("Alloc(%d): %v", oid, err)
	}
	return overwrote
}

func (r *rig) write(t *testing.T, src heap.OID, f int, target heap.OID) bool {
	t.Helper()
	overwrote, err := r.mut.Write(src, f, target)
	if err != nil {
		t.Fatalf("Write(%d.%d=%d): %v", src, f, target, err)
	}
	return overwrote
}

func (r *rig) root(t *testing.T, oid heap.OID) {
	t.Helper()
	if err := r.mut.Root(oid); err != nil {
		t.Fatalf("Root(%d): %v", oid, err)
	}
}

// partOf returns the partition holding the resident object oid.
func (r *rig) partOf(oid heap.OID) heap.PartitionID { return r.h.PartitionOf(r.h.Lookup(oid)) }

// field returns the OID held in field f of the resident object oid.
func (r *rig) field(oid heap.OID, f int) heap.OID {
	return r.h.OID(r.h.Fields(r.h.Lookup(oid))[f])
}

// weight returns the root-distance weight of the resident object oid.
func (r *rig) weight(oid heap.OID) uint8 { return r.h.Weight(r.h.Lookup(oid)) }

// liveOIDs snapshots the reachable OID set.
func (r *rig) liveOIDs() map[heap.OID]bool {
	out := make(map[heap.OID]bool)
	r.env.Oracle.Live().ForEach(func(s heap.Slot) { out[r.h.OID(s)] = true })
	return out
}

// checkNoDanglers verifies every non-nil field of every resident object
// names a resident object, along with the rest of the heap's invariants.
func (r *rig) checkNoDanglers(t *testing.T) {
	t.Helper()
	if err := r.h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
