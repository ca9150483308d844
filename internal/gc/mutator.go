// Package gc implements the partitioned copying garbage collector the
// paper holds constant while varying partition selection (Section 4.1):
// a write barrier (Mutator) that performs application operations against
// the heap while maintaining remembered sets, object weights, policy
// counters, and the collection trigger; and a breadth-first copying
// Collector that evacuates one selected partition into the reserved empty
// partition per activation.
package gc

import (
	"fmt"

	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/pagebuf"
	"odbgc/internal/remset"
)

// Mutator executes application operations, applying the write barrier. It
// charges every page access to the application account of the buffer.
type Mutator struct {
	h   *heap.Heap
	buf *pagebuf.Buffer
	rem *remset.Table
	pol core.Policy

	overwrites      int64 // pointer overwrites since the last collection
	totalOverwrites int64
	pointerStores   int64
	dataStores      int64
	reads           int64
	growths         int64
}

// NewMutator wires a mutator over the given substrates.
func NewMutator(h *heap.Heap, buf *pagebuf.Buffer, rem *remset.Table, pol core.Policy) *Mutator {
	return &Mutator{h: h, buf: buf, rem: rem, pol: pol}
}

// Alloc creates a new object and, when parent is non-nil, performs the
// creating pointer store parent.parentField = oid. The new object's pages
// are written (its contents are initialized); a non-nil parent's page is
// written too (the pointer store).
func (m *Mutator) Alloc(oid heap.OID, size int64, nfields int, parent heap.OID, parentField int) error {
	if parent != heap.NilOID && !m.h.Contains(parent) {
		return fmt.Errorf("gc: Alloc(%d): parent %d not resident", oid, parent)
	}
	obj, grew, err := m.h.Alloc(oid, size, nfields, parent)
	if err != nil {
		return err
	}
	m.growths += int64(grew.Added)
	first, last := m.h.ObjectPages(obj)
	m.buf.WriteRange(pagebuf.PageID(first), pagebuf.PageID(last), pagebuf.ActorApp)
	if parent != heap.NilOID {
		return m.store(parent, parentField, oid, true)
	}
	return nil
}

// Root adds oid to the database root set, giving it weight 1.
func (m *Mutator) Root(oid heap.OID) error {
	if !m.h.Contains(oid) {
		return fmt.Errorf("gc: Root(%d): not resident", oid)
	}
	m.h.AddRoot(oid)
	core.PropagateRoot(m.h, oid)
	return nil
}

// Read visits an object, reading all of its pages.
func (m *Mutator) Read(oid heap.OID) error {
	obj := m.h.Get(oid)
	if obj == nil {
		return fmt.Errorf("gc: Read(%d): not resident", oid)
	}
	first, last := m.h.ObjectPages(obj)
	m.buf.ReadRange(pagebuf.PageID(first), pagebuf.PageID(last), pagebuf.ActorApp)
	m.reads++
	return nil
}

// Write performs the pointer store oid.field = target through the full
// write barrier.
func (m *Mutator) Write(oid heap.OID, field int, target heap.OID) error {
	if !m.h.Contains(oid) {
		return fmt.Errorf("gc: Write(%d): not resident", oid)
	}
	if target != heap.NilOID && !m.h.Contains(target) {
		return fmt.Errorf("gc: Write(%d.%d): target %d not resident", oid, field, target)
	}
	return m.store(oid, field, target, false)
}

// store is the write barrier shared by Write and the creating store of
// Alloc.
func (m *Mutator) store(src heap.OID, field int, target heap.OID, creation bool) error {
	obj := m.h.Get(src)
	if field < 0 || field >= len(obj.Fields) {
		return fmt.Errorf("gc: store %d.%d: field out of range [0,%d)", src, field, len(obj.Fields))
	}

	// The store dirties the page holding the field; under write-back the
	// page must be resident, which is the read-modify-write the buffer's
	// miss accounting models.
	first, last := m.h.ObjectPages(obj)
	m.buf.WriteRange(pagebuf.PageID(first), pagebuf.PageID(last), pagebuf.ActorApp)

	ctx := core.StoreContext{
		Src:      src,
		SrcPart:  obj.Partition,
		New:      target,
		Creation: creation,
		Old:      heap.NilOID,
		OldPart:  heap.NoPartition,
	}
	old := m.h.WriteField(src, field, target)
	if old != heap.NilOID {
		if oldObj := m.h.Get(old); oldObj != nil {
			ctx.Old = old
			ctx.OldPart = oldObj.Partition
			ctx.OldWeight = oldObj.Weight
		}
	}

	m.rem.PointerWrite(src, field, old, target)
	core.PropagateStore(m.h, src, target)
	m.pol.PointerStore(ctx)

	m.pointerStores++
	if ctx.Overwrite() {
		m.overwrites++
		m.totalOverwrites++
	}
	return nil
}

// Modify performs a pure data mutation of an object: its pages are
// written, and the (unenhanced) mutation-counting policy is notified.
func (m *Mutator) Modify(oid heap.OID) error {
	obj := m.h.Get(oid)
	if obj == nil {
		return fmt.Errorf("gc: Modify(%d): not resident", oid)
	}
	first, last := m.h.ObjectPages(obj)
	m.buf.WriteRange(pagebuf.PageID(first), pagebuf.PageID(last), pagebuf.ActorApp)
	m.pol.DataStore(obj.Partition)
	m.dataStores++
	return nil
}

// NoteForeignOverwrite counts a pointer overwrite detected outside the
// heap's own field store: the sharded engine (internal/shard) stores
// cross-shard references as nil locally and tracks the real targets in a
// sidecar, so overwriting one is invisible to the write barrier above.
// The note feeds the same per-collection and lifetime counters a local
// overwrite does, keeping the collection trigger's cadence faithful.
func (m *Mutator) NoteForeignOverwrite() {
	m.overwrites++
	m.totalOverwrites++
}

// OverwritesSinceCollection reports pointer overwrites since the last
// ResetOverwrites call; the trigger polls it.
func (m *Mutator) OverwritesSinceCollection() int64 { return m.overwrites }

// ResetOverwrites zeroes the per-collection overwrite count.
func (m *Mutator) ResetOverwrites() { m.overwrites = 0 }

// MutatorStats summarizes application activity.
type MutatorStats struct {
	TotalOverwrites int64
	PointerStores   int64
	DataStores      int64
	Reads           int64
	Growths         int64
}

// ResetStats zeroes the mutator's activity counters (warm-start
// measurement). The per-collection overwrite count is preserved so the
// trigger's cadence is unaffected.
func (m *Mutator) ResetStats() {
	m.totalOverwrites = 0
	m.pointerStores = 0
	m.dataStores = 0
	m.reads = 0
	m.growths = 0
}

// Stats returns a snapshot of mutator counters.
func (m *Mutator) Stats() MutatorStats {
	return MutatorStats{
		TotalOverwrites: m.totalOverwrites,
		PointerStores:   m.pointerStores,
		DataStores:      m.dataStores,
		Reads:           m.reads,
		Growths:         m.growths,
	}
}
