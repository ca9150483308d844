package heap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAllocObjectsNeverOverlap drives random allocation sequences and checks
// the fundamental geometry invariants: every object lies fully inside its
// partition, no two objects overlap, and partition accounting matches the
// sum of resident object sizes.
func TestAllocObjectsNeverOverlap(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := New(Config{PageSize: 8192, PartitionPages: 3, ReserveEmpty: true})
		if err != nil {
			t.Fatal(err)
		}
		var oids []OID
		for i := 0; i < int(n)+1; i++ {
			oid := OID(i + 1)
			size := int64(50 + rng.Intn(101))
			if rng.Intn(20) == 0 {
				size = 8192 * 2 // occasionally a multi-page object
			}
			parent := NilOID
			if len(oids) > 0 && rng.Intn(2) == 0 {
				parent = oids[rng.Intn(len(oids))]
			}
			if _, _, err := h.Alloc(oid, size, 2, h.Lookup(parent)); err != nil {
				t.Fatalf("Alloc: %v", err)
			}
			oids = append(oids, oid)
		}
		return checkGeometry(t, h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// checkGeometry verifies containment, non-overlap, and accounting.
func checkGeometry(t *testing.T, h *Heap) bool {
	t.Helper()
	pb := h.Config().PartitionBytes()
	type span struct{ lo, hi Addr }
	byPart := make(map[PartitionID][]span)
	sizeByPart := make(map[PartitionID]int64)

	for oid := OID(1); ; oid++ {
		obj := h.Lookup(oid)
		if obj == NilSlot {
			break
		}
		part, lo := h.PartitionOf(obj), h.AddrOf(obj)
		hi := lo + Addr(h.Size(obj))
		base := h.Partition(part).Base
		if lo < base || hi > base+Addr(pb) {
			t.Errorf("object %d [%d,%d) escapes partition %d [%d,%d)",
				oid, lo, hi, part, base, base+Addr(pb))
			return false
		}
		byPart[part] = append(byPart[part], span{lo, hi})
		sizeByPart[part] += h.Size(obj)
	}
	for p, spans := range byPart {
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.lo < b.hi && b.lo < a.hi {
					t.Errorf("partition %d: overlapping objects [%d,%d) and [%d,%d)",
						p, a.lo, a.hi, b.lo, b.hi)
					return false
				}
			}
		}
		if used := h.Partition(p).Used(); used != sizeByPart[p] {
			t.Errorf("partition %d: used %d != sum of sizes %d", p, used, sizeByPart[p])
			return false
		}
	}
	return true
}

// TestEmptyPartitionStaysEmpty checks that no random allocation sequence
// ever places an object in the reserved empty partition.
func TestEmptyPartitionStaysEmpty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := New(Config{PageSize: 8192, PartitionPages: 2, ReserveEmpty: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(n)+1; i++ {
			size := int64(50 + rng.Intn(8192))
			if _, _, err := h.Alloc(OID(i+1), size, 1, NilSlot); err != nil {
				t.Fatalf("Alloc: %v", err)
			}
		}
		e := h.Partition(h.EmptyPartition())
		return e.Used() == 0 && e.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPageRangeConsistency checks page math against a direct definition for
// arbitrary addresses and sizes.
func TestPageRangeConsistency(t *testing.T) {
	h, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps := h.Config().PageSize
	f := func(addr uint32, size uint16) bool {
		a, s := Addr(addr), int64(size)+1
		first, last := h.PageRange(a, s)
		if int64(first)*ps > int64(a) {
			return false // first page starts after the range begins
		}
		if (int64(last)+1)*ps < int64(a)+s {
			return false // last page ends before the range does
		}
		// Tight: the range actually intersects both end pages.
		return int64(a) < (int64(first)+1)*ps && int64(a)+s > int64(last)*ps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOracleMatchesBruteForce compares the oracle's live set against an
// independent recursive reachability computation on random graphs, and
// checks MostGarbagePartition against GarbageByPartition.
func TestOracleMatchesBruteForce(t *testing.T) {
	f := func(seed int64, n uint8, edges uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := New(Config{PageSize: 8192, PartitionPages: 2, ReserveEmpty: true})
		if err != nil {
			t.Fatal(err)
		}
		count := int(n%40) + 2
		for i := 1; i <= count; i++ {
			if _, _, err := h.Alloc(OID(i), int64(50+rng.Intn(101)), 4, NilSlot); err != nil {
				t.Fatal(err)
			}
		}
		h.AddRoot(h.Lookup(1))
		if count > 3 {
			h.AddRoot(h.Lookup(2))
		}
		for e := 0; e < int(edges); e++ {
			src := OID(rng.Intn(count) + 1)
			dst := OID(rng.Intn(count) + 1)
			write(h, src, rng.Intn(4), dst)
		}

		// Brute force with explicit recursion.
		live := make(map[OID]bool)
		var visit func(OID)
		visit = func(oid OID) {
			if oid == NilOID || live[oid] || !h.Contains(oid) {
				return
			}
			live[oid] = true
			for _, f := range h.Fields(h.Lookup(oid)) {
				visit(h.OID(f))
			}
		}
		h.Roots(func(s Slot) { visit(h.OID(s)) })

		o := NewOracle(h)
		got := o.Live()
		if got.Len() != len(live) {
			t.Errorf("live size %d, brute force %d", got.Len(), len(live))
			return false
		}
		for oid := range live {
			if !got.Contains(oid) {
				t.Errorf("oracle missing live %d", oid)
				return false
			}
		}

		best, amt := o.MostGarbagePartition()
		g := o.GarbageByPartition()
		for id, a := range g {
			if PartitionID(id) == h.EmptyPartition() {
				continue
			}
			if a > amt {
				t.Errorf("partition %d has %d garbage > selected %d with %d", id, a, best, amt)
				return false
			}
		}
		return g[best] == amt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
