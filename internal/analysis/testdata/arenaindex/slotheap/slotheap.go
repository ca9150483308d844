// Package slotheap is an arenaindex fixture: a miniature slot heap with
// the same shape as the real one — pointer-free per-slot records and a
// flat field arena, both fields marked //odbgc:arena, grown by Alloc.
package slotheap

type rec struct {
	size     int64
	fieldOff uint32
	nfields  uint32
}

type Heap struct {
	slots []rec    //odbgc:arena
	arena []uint32 //odbgc:arena
	roots []uint32
}

// newSlot may reallocate the slot storage.
func (h *Heap) newSlot() uint32 {
	h.slots = append(h.slots, rec{})
	return uint32(len(h.slots) - 1)
}

// allocFields may reallocate the field arena.
func (h *Heap) allocFields(n int) uint32 {
	off := len(h.arena)
	h.arena = append(h.arena, make([]uint32, n)...)
	return uint32(off)
}

// Alloc moves both arenas through its callees.
func (h *Heap) Alloc(size int64, n int) uint32 {
	s := h.newSlot()
	off := h.allocFields(n)
	h.slots[s] = rec{size: size, fieldOff: off, nfields: uint32(n)}
	return s
}

// AddRoot grows a slice that is not an arena.
func (h *Heap) AddRoot(s uint32) { h.roots = append(h.roots, s) }

// Fields returns a view into the field arena.
func (h *Heap) Fields(s uint32) []uint32 {
	r := &h.slots[s]
	return h.arena[r.fieldOff : r.fieldOff+r.nfields]
}

// StaleRecord holds a pointer into the slot storage across Alloc.
func (h *Heap) StaleRecord(s uint32) int64 {
	r := &h.slots[s]
	h.Alloc(8, 1)
	return r.size // want `used after call to Alloc, which grows slots`
}

// StaleView holds a view of the field arena across Alloc.
func (h *Heap) StaleView(s uint32) uint32 {
	fs := h.Fields(s)
	h.Alloc(8, 1)
	return fs[0] // want `used after call to Alloc, which grows arena`
}

// StaleSlice slices the arena directly and holds the view across Alloc.
func (h *Heap) StaleSlice(lo, hi uint32) uint32 {
	v := h.arena[lo:hi]
	h.Alloc(8, 1)
	return v[0] // want `used after call to Alloc, which grows arena`
}

// FreshRecord re-indexes after Alloc, the correct order; a call that
// grows no arena does not invalidate the pointer either.
func (h *Heap) FreshRecord(s uint32) int64 {
	r := &h.slots[s]
	h.AddRoot(s)
	size := r.size
	h.Alloc(8, 1)
	r = &h.slots[s]
	return size + r.size
}

// PinnedView reads a view after Alloc on purpose; the suppression
// records why.
func (h *Heap) PinnedView(s uint32) int {
	fs := h.Fields(s)
	h.Alloc(8, 0)
	return len(fs) //odbgc:arena-ok only the length is read, which the move does not change
}
