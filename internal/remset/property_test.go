package remset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"odbgc/internal/heap"
)

// TestTableStaysExactUnderRandomWrites drives random pointer-store
// sequences over a multi-partition heap and audits the table against a
// brute-force recomputation after every batch.
func TestTableStaysExactUnderRandomWrites(t *testing.T) {
	f := func(seed int64, nOps uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := heap.New(heap.Config{PageSize: 512, PartitionPages: 2, ReserveEmpty: true})
		if err != nil {
			t.Fatal(err)
		}
		const nObjs = 30
		for i := 1; i <= nObjs; i++ {
			// ~10 objects per 1024-byte partition.
			if _, _, err := h.Alloc(heap.OID(i), int64(80+rng.Intn(40)), 3, heap.NilSlot); err != nil {
				t.Fatal(err)
			}
		}
		tab := New(h)
		ops := int(nOps%300) + 1
		for i := 0; i < ops; i++ {
			src := heap.OID(rng.Intn(nObjs) + 1)
			field := rng.Intn(3)
			var target heap.OID
			if rng.Intn(4) != 0 { // 25% nil stores
				target = heap.OID(rng.Intn(nObjs) + 1)
			}
			s, ts := h.Lookup(src), h.Lookup(target)
			old := h.WriteField(s, field, ts)
			tab.PointerWrite(s, field, old, ts)

			if i%37 == 0 {
				if msg := tab.Audit(); msg != "" {
					t.Errorf("after %d ops: %s", i+1, msg)
					return false
				}
			}
		}
		if msg := tab.Audit(); msg != "" {
			t.Error(msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPurgeAndRekeyPreserveExactness simulates the collector's interaction
// with the table: random writes, then an evacuation of one partition
// (moving every resident with no liveness analysis, which is a legal
// degenerate collection where everything survives), then more writes.
func TestPurgeAndRekeyPreserveExactness(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := heap.New(heap.Config{PageSize: 512, PartitionPages: 2, ReserveEmpty: true})
		if err != nil {
			t.Fatal(err)
		}
		const nObjs = 24
		for i := 1; i <= nObjs; i++ {
			if _, _, err := h.Alloc(heap.OID(i), 100, 3, heap.NilSlot); err != nil {
				t.Fatal(err)
			}
		}
		tab := New(h)
		doWrites := func(n int) bool {
			for i := 0; i < n; i++ {
				src := heap.OID(rng.Intn(nObjs) + 1)
				field := rng.Intn(3)
				var target heap.OID
				if rng.Intn(3) != 0 {
					target = heap.OID(rng.Intn(nObjs) + 1)
				}
				s, ts := h.Lookup(src), h.Lookup(target)
				old := h.WriteField(s, field, ts)
				tab.PointerWrite(s, field, old, ts)
			}
			return true
		}
		doWrites(int(nOps) + 1)

		// Evacuate partition 0 wholesale into the empty partition.
		victim := heap.PartitionID(0)
		dest := h.EmptyPartition()
		residents := append([]heap.Slot(nil), h.Partition(victim).Slots()...)
		for _, s := range residents {
			h.Move(s, dest)
			tab.Moved(s, victim, dest)
		}
		// Moving objects between partitions can turn inter-partition
		// pointers among them into intra-partition ones and vice versa:
		// here every victim resident moved together, so pointers among
		// them stay intra... they were intra (both in victim) and remain
		// intra (both in dest). Pointers from dest residents outward and
		// inward are handled by Rekey.
		h.ResetPartition(victim)
		tab.Rekey(victim, dest)
		h.SetEmptyPartition(victim)

		if msg := tab.Audit(); msg != "" {
			t.Errorf("after evacuation: %s", msg)
			return false
		}
		doWrites(int(nOps) + 1)
		if msg := tab.Audit(); msg != "" {
			t.Errorf("after post-evacuation writes: %s", msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
