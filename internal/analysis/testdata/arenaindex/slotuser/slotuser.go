// Package slotuser is the cross-package half of the slot-heap fixture:
// it sees slotheap only through the facts arenaindex exported for it.
package slotuser

import "slotheap"

// StaleAcrossPackages holds a view of a field arena across Alloc.
func StaleAcrossPackages(h *slotheap.Heap, s uint32) uint32 {
	fs := h.Fields(s)
	h.Alloc(0, 16, 2)
	return fs[1] // want `fs points into arena fields but is used after call to Alloc, which grows fields`
}

// StaleAcrossMove holds a view of a field arena across Move.
func StaleAcrossMove(h *slotheap.Heap, s, t uint32) uint32 {
	fs := h.Fields(s)
	h.Move(t, 1)
	return fs[0] // want `fs points into arena fields but is used after call to Move, which grows fields`
}

// FreshAcrossPackages takes the view after Alloc.
func FreshAcrossPackages(h *slotheap.Heap, s uint32) uint32 {
	h.Alloc(0, 16, 2)
	fs := h.Fields(s)
	h.AddRoot(s)
	return fs[1]
}
