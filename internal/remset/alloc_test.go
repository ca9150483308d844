package remset

import (
	"testing"

	"odbgc/internal/heap"
)

// PointerWrite is the write-barrier fast path — it runs for every pointer
// store the simulator replays — so in steady state it must not allocate.
//
// The functions this guard exercises carry //odbgc:hotpath annotations
// checked by the hotcall analyzer; TestHotpathAnnotationsMatchGuards in
// internal/analysis keeps the two sets in sync via the declarations below.
//
//odbgc:allocguard remset.Table.PointerWrite remset.Table.add remset.Table.remove
//odbgc:allocguard remset.Table.inAt
func TestPointerWriteZeroAllocs(t *testing.T) {
	h, a, b := buildHeap(t)
	tab := New(h)
	src, target := h.Lookup(a), h.Lookup(b)

	// Warm up: populate the entry store once so its map has capacity.
	tab.PointerWrite(src, 0, heap.NilSlot, target)
	tab.PointerWrite(src, 0, target, heap.NilSlot)

	allocs := testing.AllocsPerRun(1000, func() {
		tab.PointerWrite(src, 0, heap.NilSlot, target) // install remembered entry
		tab.PointerWrite(src, 0, target, heap.NilSlot) // retract it
	})
	if allocs != 0 {
		t.Fatalf("PointerWrite steady state: %v allocs/op, want 0", allocs)
	}
}
