// Package gc implements the partitioned copying garbage collector the
// paper holds constant while varying partition selection (Section 4.1):
// a write barrier (Mutator) that performs application operations against
// the heap while maintaining remembered sets, object weights, and policy
// counters, reporting each pointer overwrite to its caller for the
// collection trigger; and a breadth-first copying Collector that
// evacuates one selected partition into the reserved empty partition per
// activation.
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
	wts core.Weights

	totalOverwrites int64
}

// NewMutator wires a mutator over the given substrates.
func NewMutator(h *heap.Heap, buf *pagebuf.Buffer, rem *remset.Table, pol core.Policy) *Mutator {
	return &Mutator{h: h, buf: buf, rem: rem, pol: pol}
}

// Alloc creates a new object and, when parent is non-nil, performs the
// creating pointer store parent.parentField = oid. The new object's pages
// are written (its contents are initialized); a non-nil parent's page is
// written too (the pointer store). overwrote reports whether the creating
// store replaced a non-nil pointer. A non-resident parent or a
// parentField outside the parent's fields fails before anything is
// allocated.
func (m *Mutator) Alloc(oid heap.OID, size int64, nfields int, parent heap.OID, parentField int) (overwrote bool, err error) {
	ps := m.h.Lookup(parent)
	if parent != heap.NilOID {
		if ps == heap.NilSlot {
			return false, fmt.Errorf("gc: Alloc(%d): parent %d not resident", oid, parent) //odbgc:alloc-ok error path formats its report
		}
		if err := m.checkField(ps, parentField); err != nil {
			return false, err
		}
	}
	s, _, err := m.h.Alloc(oid, size, nfields, ps)
	if err != nil {
		return false, err
	}
	first, last := m.h.Pages(s)
	m.buf.WriteRange(pagebuf.PageID(first), pagebuf.PageID(last), pagebuf.ActorApp)
	if parent != heap.NilOID {
		return m.store(ps, parentField, s, true)
	}
	return false, nil
}

// Root adds oid to the database root set, giving it weight 1.
func (m *Mutator) Root(oid heap.OID) error {
	s := m.h.Lookup(oid)
	if s == heap.NilSlot {
		return fmt.Errorf("gc: Root(%d): not resident", oid) //odbgc:alloc-ok error path formats its report
	}
	m.h.AddRoot(s)
	m.wts.PropagateRoot(m.h, s)
	return nil
}

// Read visits an object, reading all of its pages.
func (m *Mutator) Read(oid heap.OID) error {
	s := m.h.Lookup(oid)
	if s == heap.NilSlot {
		return fmt.Errorf("gc: Read(%d): not resident", oid) //odbgc:alloc-ok error path formats its report
	}
	first, last := m.h.Pages(s)
	m.buf.ReadRange(pagebuf.PageID(first), pagebuf.PageID(last), pagebuf.ActorApp)
	return nil
}

// Write performs the pointer store oid.field = target through the full
// write barrier. overwrote reports whether it replaced a non-nil pointer.
func (m *Mutator) Write(oid heap.OID, field int, target heap.OID) (overwrote bool, err error) {
	s := m.h.Lookup(oid)
	if s == heap.NilSlot {
		return false, fmt.Errorf("gc: Write(%d): not resident", oid) //odbgc:alloc-ok error path formats its report
	}
	ts := m.h.Lookup(target)
	if target != heap.NilOID && ts == heap.NilSlot {
		return false, fmt.Errorf("gc: Write(%d.%d): target %d not resident", oid, field, target) //odbgc:alloc-ok error path formats its report
	}
	return m.store(s, field, ts, false)
}

// checkField returns an error unless field is one of the fields of the
// object in slot src.
func (m *Mutator) checkField(src heap.Slot, field int) error {
	if n := m.h.NumFields(src); field < 0 || field >= n {
		return fmt.Errorf("gc: store %d.%d: field out of range [0,%d)", m.h.OID(src), field, n) //odbgc:alloc-ok error path formats its report
	}
	return nil
}

// store is the write barrier shared by Write and the creating store of
// Alloc: src.field = target, both slots. It reports whether the store
// overwrote a non-nil pointer.
func (m *Mutator) store(src heap.Slot, field int, target heap.Slot, creation bool) (bool, error) {
	if err := m.checkField(src, field); err != nil {
		return false, err
	}

	// The store dirties the page holding the field; under write-back the
	// page must be resident, which is the read-modify-write the buffer's
	// miss accounting models.
	first, last := m.h.Pages(src)
	m.buf.WriteRange(pagebuf.PageID(first), pagebuf.PageID(last), pagebuf.ActorApp)

	ctx := core.StoreContext{
		Src:      m.h.OID(src),
		SrcPart:  m.h.PartitionOf(src),
		New:      m.h.OID(target),
		Creation: creation,
		Old:      heap.NilOID,
		OldPart:  heap.NoPartition,
	}
	old := m.h.WriteField(src, field, target)
	if old != heap.NilSlot && m.h.Resident(old) {
		ctx.Old = m.h.OID(old)
		ctx.OldPart = m.h.PartitionOf(old)
		ctx.OldWeight = m.h.Weight(old)
	}

	m.rem.PointerWrite(src, field, old, target)
	m.wts.PropagateStore(m.h, src, target)
	m.pol.PointerStore(ctx)

	if !ctx.Overwrite() {
		return false, nil
	}
	m.totalOverwrites++
	return true, nil
}

// Modify performs a pure data mutation of an object: its pages are
// written, and the (unenhanced) mutation-counting policy is notified.
func (m *Mutator) Modify(oid heap.OID) error {
	s := m.h.Lookup(oid)
	if s == heap.NilSlot {
		return fmt.Errorf("gc: Modify(%d): not resident", oid) //odbgc:alloc-ok error path formats its report
	}
	first, last := m.h.Pages(s)
	m.buf.WriteRange(pagebuf.PageID(first), pagebuf.PageID(last), pagebuf.ActorApp)
	m.pol.DataStore(m.h.PartitionOf(s))
	return nil
}

// NoteForeignOverwrite counts a pointer overwrite detected outside the
// heap's own field store: the sharded engine (internal/shard) stores
// cross-shard references as nil locally and tracks the real targets in a
// sidecar, so overwriting one is invisible to the write barrier above.
// The note feeds the same lifetime counter a local overwrite does.
func (m *Mutator) NoteForeignOverwrite() { m.totalOverwrites++ }

// MutatorStats summarizes application activity.
type MutatorStats struct {
	TotalOverwrites int64
}

// ResetStats zeroes the mutator's activity counters (warm-start
// measurement). The collection trigger keeps its own count, so its
// cadence is unaffected.
func (m *Mutator) ResetStats() {
	m.totalOverwrites = 0
}

// Stats returns a snapshot of mutator counters.
func (m *Mutator) Stats() MutatorStats {
	return MutatorStats{TotalOverwrites: m.totalOverwrites}
}
