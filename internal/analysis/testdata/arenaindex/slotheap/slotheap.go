// Package slotheap is an arenaindex fixture: a miniature slot heap with
// the same shape as the real one — pointer-free per-slot records and one
// field arena per partition, both fields marked //odbgc:arena. Alloc
// grows the slot storage and a partition's field arena, Move grows the
// destination's field arena, and Reset truncates one.
package slotheap

type rec struct {
	size     int64
	part     int32
	fieldOff uint32
	nfields  uint32
}

type Heap struct {
	slots  []rec      //odbgc:arena
	fields [][]uint32 //odbgc:arena
	roots  []uint32
}

// newSlot may reallocate the slot storage.
func (h *Heap) newSlot() uint32 {
	h.slots = append(h.slots, rec{})
	return uint32(len(h.slots) - 1)
}

// Alloc moves the slot storage through newSlot, and partition p's field
// arena by appending to it.
func (h *Heap) Alloc(p int32, size int64, n int) uint32 {
	s := h.newSlot()
	h.slots[s] = rec{size: size, part: p, fieldOff: uint32(len(h.fields[p])), nfields: uint32(n)}
	h.fields[p] = append(h.fields[p], make([]uint32, n)...)
	return s
}

// Move appends the object's fields to partition dst's field arena; it
// does not move the slot storage.
func (h *Heap) Move(s uint32, dst int32) {
	r := &h.slots[s]
	off := len(h.fields[dst])
	h.fields[dst] = append(h.fields[dst], h.Fields(s)...)
	r.part, r.fieldOff = dst, uint32(off)
}

// Reset truncates partition p's field arena in place.
func (h *Heap) Reset(p int32) { h.fields[p] = h.fields[p][:0] }

// AddRoot grows a slice that is not an arena.
func (h *Heap) AddRoot(s uint32) { h.roots = append(h.roots, s) }

// Fields returns a view into the field arena of the object's partition.
func (h *Heap) Fields(s uint32) []uint32 {
	r := &h.slots[s]
	return h.fields[r.part][r.fieldOff : r.fieldOff+r.nfields]
}

// StaleRecord holds a pointer into the slot storage across Alloc.
func (h *Heap) StaleRecord(s uint32) int64 {
	r := &h.slots[s]
	h.Alloc(0, 8, 1)
	return r.size // want `used after call to Alloc, which grows slots`
}

// StaleView holds a view of a field arena across Alloc.
func (h *Heap) StaleView(s uint32) uint32 {
	fs := h.Fields(s)
	h.Alloc(0, 8, 1)
	return fs[0] // want `used after call to Alloc, which grows fields`
}

// StaleViewAcrossMove holds a view of a field arena across Move, which
// may append to the same partition's arena.
func (h *Heap) StaleViewAcrossMove(s, t uint32) uint32 {
	fs := h.Fields(s)
	h.Move(t, h.slots[s].part)
	return fs[0] // want `used after call to Move, which grows fields`
}

// StaleSlice slices a partition's arena directly and holds the view
// across Alloc.
func (h *Heap) StaleSlice(p int32, lo, hi uint32) uint32 {
	v := h.fields[p][lo:hi]
	h.Alloc(p, 8, 1)
	return v[0] // want `used after call to Alloc, which grows fields`
}

// StaleArena holds a partition's whole arena across Alloc.
func (h *Heap) StaleArena(p int32) uint32 {
	a := h.fields[p]
	h.Alloc(p, 8, 1)
	return a[0] // want `a points into arena h.fields but is used after call to Alloc`
}

// StaleAfterReset holds a view across a direct truncation of another
// partition's arena: elements of one arena field are not told apart.
func (h *Heap) StaleAfterReset(p, q int32) uint32 {
	v := &h.fields[p][0]
	h.fields[q] = h.fields[q][:0]
	return *v // want `used after reassignment of h.fields`
}

// RecordAcrossMove reads a slot record after Move, which grows only the
// field arenas.
func (h *Heap) RecordAcrossMove(s uint32) int64 {
	r := &h.slots[s]
	h.Move(s, 1)
	return r.size
}

// FreshRecord re-indexes after Alloc, the correct order; a call that
// grows no arena does not invalidate the pointer either.
func (h *Heap) FreshRecord(s uint32) int64 {
	r := &h.slots[s]
	h.AddRoot(s)
	size := r.size
	h.Alloc(0, 8, 1)
	r = &h.slots[s]
	return size + r.size
}

// WriteElement stores through a partition's arena without moving it.
func (h *Heap) WriteElement(s uint32, v uint32) {
	r := &h.slots[s]
	fs := h.fields[r.part]
	fs[r.fieldOff] = v
	h.fields[r.part][r.fieldOff] = v
}

// PinnedView reads a view after Alloc on purpose; the suppression
// records why.
func (h *Heap) PinnedView(s uint32) int {
	fs := h.Fields(s)
	h.Alloc(0, 8, 0)
	return len(fs) //odbgc:arena-ok only the length is read, which the move does not change
}
