package heap

import (
	"math/rand"
	"testing"
)

func BenchmarkAlloc(b *testing.B) {
	h, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parent := NilOID
		if i > 0 && rng.Intn(2) == 0 {
			parent = OID(rng.Intn(i) + 1)
		}
		if _, _, err := h.Alloc(OID(i+1), int64(50+rng.Intn(101)), 4, h.Lookup(parent)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteField(b *testing.B) {
	h, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const n = 10_000
	for i := 1; i <= n; i++ {
		if _, _, err := h.Alloc(OID(i), 100, 4, NilSlot); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.WriteField(Slot(rng.Intn(n)+1), rng.Intn(4), Slot(rng.Intn(n)+1))
	}
}

// BenchmarkOracleLive measures a full reachability pass over a 50k-object
// forest — the per-collection cost of the MostGarbage policy.
func BenchmarkOracleLive(b *testing.B) {
	h, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 50_000
	for i := 1; i <= n; i++ {
		parent := NilOID
		if i > 1 {
			parent = OID(rng.Intn(i-1) + 1)
		}
		s, _, err := h.Alloc(OID(i), 100, 4, h.Lookup(parent))
		if err != nil {
			b.Fatal(err)
		}
		if parent == NilOID {
			h.AddRoot(s)
		} else {
			f := rng.Intn(4)
			if ps := h.Lookup(parent); h.Fields(ps)[f] == NilSlot {
				h.WriteField(ps, f, s)
			}
		}
	}
	o := NewOracle(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Live()
	}
}

func BenchmarkGarbageByPartition(b *testing.B) {
	h, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 20_000
	for i := 1; i <= n; i++ {
		s, _, err := h.Alloc(OID(i), 100, 4, NilSlot)
		if err != nil {
			b.Fatal(err)
		}
		if i%100 == 1 {
			h.AddRoot(s)
		} else if rng.Intn(4) != 0 {
			prev := h.Lookup(OID(i - 1))
			if h.Fields(prev)[0] == NilSlot {
				h.WriteField(prev, 0, s)
			}
		}
	}
	o := NewOracle(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.GarbageByPartition()
	}
}
