package core

import (
	"math/rand"
	"testing"

	"odbgc/internal/heap"
)

// BenchmarkPropagateStore measures weight maintenance on a deep chain —
// the worst case, where one store relaxes weights transitively.
func BenchmarkPropagateStore(b *testing.B) {
	h, err := heap.New(heap.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const n = 1000
	for i := 1; i <= n; i++ {
		if _, _, err := h.Alloc(heap.OID(i), 100, 2, heap.NilSlot); err != nil {
			b.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		h.WriteField(h.Lookup(heap.OID(i)), 0, h.Lookup(heap.OID(i+1)))
	}
	var wt Weights
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Reset weights, then trigger a full-chain relaxation.
		b.StopTimer()
		for j := 1; j <= n; j++ {
			h.SetWeight(h.Lookup(heap.OID(j)), heap.MaxWeight)
		}
		b.StartTimer()
		wt.PropagateRoot(h, h.Lookup(1))
	}
}

// BenchmarkPolicySelect measures selection cost per policy on a 30-
// partition database.
func BenchmarkPolicySelect(b *testing.B) {
	h, err := heap.New(heap.Config{PageSize: 8192, PartitionPages: 2, ReserveEmpty: true})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 2000; i++ {
		if _, _, err := h.Alloc(heap.OID(i), 100, 4, heap.NilSlot); err != nil {
			b.Fatal(err)
		}
	}
	h.AddRoot(h.Lookup(1))
	for i := 2; i <= 2000; i++ {
		h.WriteField(h.Lookup(heap.OID(rng.Intn(i-1)+1)), rng.Intn(4), h.Lookup(heap.OID(i)))
	}
	env := &Env{Heap: h, Oracle: heap.NewOracle(h), Rand: rand.New(rand.NewSource(2))}

	for _, name := range Names() {
		pol, err := New(name, rand.New(rand.NewSource(3)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pol.Select(env)
			}
		})
	}
}

// BenchmarkPointerStoreHook measures the per-store policy hook cost.
func BenchmarkPointerStoreHook(b *testing.B) {
	ctx := StoreContext{Src: 1, SrcPart: 0, Old: 2, OldPart: 1, OldWeight: 5, New: 3}
	for _, name := range []string{NameMutatedPartition, NameUpdatedPointer, NameWeightedPointer} {
		pol, err := New(name, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pol.PointerStore(ctx)
			}
		})
	}
}
