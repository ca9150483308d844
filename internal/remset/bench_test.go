package remset

import (
	"math/rand"
	"testing"

	"odbgc/internal/heap"
)

// benchTable builds a multi-partition heap with n objects and a table.
func benchTable(b *testing.B, n int) (*heap.Heap, *Table, []heap.Slot) {
	b.Helper()
	h, err := heap.New(heap.Config{PageSize: 8192, PartitionPages: 4, ReserveEmpty: true})
	if err != nil {
		b.Fatal(err)
	}
	slots := make([]heap.Slot, n)
	for i := range slots {
		s, _, err := h.Alloc(heap.OID(i+1), 100, 4, heap.NilSlot)
		if err != nil {
			b.Fatal(err)
		}
		slots[i] = s
	}
	return h, New(h), slots
}

// BenchmarkPointerWrite measures the eager write barrier's remembered-set
// maintenance, the per-store cost every policy pays.
func BenchmarkPointerWrite(b *testing.B) {
	h, tab, oids := benchTable(b, 10_000)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := oids[rng.Intn(len(oids))]
		f := rng.Intn(4)
		var target heap.Slot
		if rng.Intn(4) != 0 {
			target = oids[rng.Intn(len(oids))]
		}
		old := h.WriteField(src, f, target)
		tab.PointerWrite(src, f, old, target)
	}
}

// BenchmarkRootsInto measures remembered-set enumeration, paid once per
// collection.
func BenchmarkRootsInto(b *testing.B) {
	h, tab, oids := benchTable(b, 10_000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		src := oids[rng.Intn(len(oids))]
		f := rng.Intn(4)
		target := oids[rng.Intn(len(oids))]
		old := h.WriteField(src, f, target)
		tab.PointerWrite(src, f, old, target)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.RootsInto(heap.PartitionID(i%h.NumPartitions()), func(Entry, heap.Slot) {})
	}
}
