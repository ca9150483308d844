package remset

import (
	"testing"

	"odbgc/internal/heap"
)

// twoPartitionHeap allocates objects 1..n of 100 bytes with 4 fields each;
// objects alternate... actually objects bump into partition 0 until full.
// For controlled placement, it fills partition 0 and forces later objects
// into a new partition.
func buildHeap(t *testing.T) (*heap.Heap, heap.OID, heap.OID) {
	t.Helper()
	cfg := heap.Config{PageSize: 8192, PartitionPages: 1, ReserveEmpty: true}
	h, err := heap.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Object 1 fills partition 0 almost entirely; object 2 is forced into
	// a new partition.
	if _, _, err := h.Alloc(1, cfg.PartitionBytes()-100, 4, heap.NilSlot); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Alloc(2, 200, 4, heap.NilSlot); err != nil {
		t.Fatal(err)
	}
	if h.PartitionOf(h.Lookup(1)) == h.PartitionOf(h.Lookup(2)) {
		t.Fatal("setup: objects 1 and 2 must be in different partitions")
	}
	return h, 1, 2
}

func write(t *testing.T, h *heap.Heap, tab *Table, src heap.OID, f int, target heap.OID) {
	t.Helper()
	s, ts := h.Lookup(src), h.Lookup(target)
	old := h.WriteField(s, f, ts)
	tab.PointerWrite(s, f, old, ts)
}

func TestInterPartitionStoreRecorded(t *testing.T) {
	h, a, b := buildHeap(t)
	tab := New(h)
	write(t, h, tab, a, 0, b)

	pb := h.PartitionOf(h.Lookup(b))
	if got := tab.InCount(pb); got != 1 {
		t.Fatalf("InCount = %d, want 1", got)
	}
	var entries []Entry
	var targets []heap.OID
	tab.RootsInto(pb, func(e Entry, target heap.Slot) {
		entries = append(entries, e)
		targets = append(targets, h.OID(target))
	})
	if len(entries) != 1 || entries[0] != (Entry{a, 0}) || targets[0] != b {
		t.Fatalf("roots = %v -> %v", entries, targets)
	}
	if h.OutCount(h.Lookup(a)) != 1 {
		t.Fatalf("OutCount(a) = %d, want 1", h.OutCount(h.Lookup(a)))
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIntraPartitionStoreIgnored(t *testing.T) {
	h, a, _ := buildHeap(t)
	// Allocate a sibling next to object 2 so we have two co-resident
	// objects; object 1 fills partition 0, so 3 lands with 2.
	if _, _, err := h.Alloc(3, 100, 4, h.Lookup(2)); err != nil {
		t.Fatal(err)
	}
	if h.PartitionOf(h.Lookup(3)) != h.PartitionOf(h.Lookup(2)) {
		t.Fatal("setup: 2 and 3 must share a partition")
	}
	tab := New(h)
	write(t, h, tab, 2, 0, 3)
	if got := tab.InCount(h.PartitionOf(h.Lookup(3))); got != 0 {
		t.Fatalf("intra-partition store recorded: InCount = %d", got)
	}
	if h.OutCount(h.Lookup(2)) != 0 {
		t.Fatal("intra-partition store counted as out-pointer")
	}
	_ = a
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOverwriteRemovesOldEntry(t *testing.T) {
	h, a, b := buildHeap(t)
	tab := New(h)
	write(t, h, tab, a, 0, b)
	write(t, h, tab, a, 0, heap.NilOID)
	if got := tab.InCount(h.PartitionOf(h.Lookup(b))); got != 0 {
		t.Fatalf("InCount after nil overwrite = %d, want 0", got)
	}
	if h.OutCount(h.Lookup(a)) != 0 {
		t.Fatal("out-count not decremented")
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOverwriteRetargetsEntry(t *testing.T) {
	h, a, b := buildHeap(t)
	// A third object sharing b's partition.
	if _, _, err := h.Alloc(3, 100, 4, h.Lookup(b)); err != nil {
		t.Fatal(err)
	}
	tab := New(h)
	write(t, h, tab, a, 0, b)
	write(t, h, tab, a, 0, 3)
	pb := h.PartitionOf(h.Lookup(b))
	if got := tab.InCount(pb); got != 1 {
		t.Fatalf("InCount = %d, want 1", got)
	}
	tab.RootsInto(pb, func(e Entry, target heap.Slot) {
		if h.OID(target) != 3 {
			t.Fatalf("target = %d, want 3", h.OID(target))
		}
	})
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoFieldsTwoEntries(t *testing.T) {
	h, a, b := buildHeap(t)
	tab := New(h)
	write(t, h, tab, a, 0, b)
	write(t, h, tab, a, 1, b)
	pb := h.PartitionOf(h.Lookup(b))
	if got := tab.InCount(pb); got != 2 {
		t.Fatalf("InCount = %d, want 2", got)
	}
	if h.OutCount(h.Lookup(a)) != 2 {
		t.Fatalf("OutCount = %d, want 2", h.OutCount(h.Lookup(a)))
	}
	var fields []int
	tab.RootsInto(pb, func(e Entry, _ heap.Slot) { fields = append(fields, e.Field) })
	if len(fields) != 2 || fields[0] != 0 || fields[1] != 1 {
		t.Fatalf("fields enumerated %v, want sorted [0 1]", fields)
	}
}

func TestPurgeDeadRemovesEntries(t *testing.T) {
	h, a, b := buildHeap(t)
	tab := New(h)
	write(t, h, tab, a, 0, b)
	write(t, h, tab, a, 2, b)
	tab.PurgeDead(h.Lookup(a))
	if got := tab.InCount(h.PartitionOf(h.Lookup(b))); got != 0 {
		t.Fatalf("InCount after purge = %d, want 0", got)
	}
	if n := h.OutCount(h.Lookup(a)); n != 0 {
		t.Fatalf("out-count after purge = %d, want 0", n)
	}
}

func TestPurgeDeadNoOutPointersIsNoop(t *testing.T) {
	h, a, _ := buildHeap(t)
	tab := New(h)
	tab.PurgeDead(h.Lookup(a)) // must not panic or mutate anything
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRekeyTransfersRememberedSet(t *testing.T) {
	h, a, b := buildHeap(t)
	tab := New(h)
	write(t, h, tab, a, 0, b)
	victim := h.PartitionOf(h.Lookup(b))
	dest := h.EmptyPartition()

	h.Move(h.Lookup(b), dest)
	tab.Rekey(victim, dest)

	if got := tab.InCount(victim); got != 0 {
		t.Fatalf("victim InCount = %d, want 0", got)
	}
	if got := tab.InCount(dest); got != 1 {
		t.Fatalf("dest InCount = %d, want 1", got)
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRekeyIntoNonEmptyPanics(t *testing.T) {
	h, a, b := buildHeap(t)
	tab := New(h)
	write(t, h, tab, a, 0, b)
	pa, pb := h.PartitionOf(h.Lookup(a)), h.PartitionOf(h.Lookup(b))
	defer func() {
		if recover() == nil {
			t.Error("Rekey into partition with entries did not panic")
		}
	}()
	tab.Rekey(pa, pb) // pb already has an in-entry
}

func TestDuplicateAddPanics(t *testing.T) {
	h, a, b := buildHeap(t)
	tab := New(h)
	write(t, h, tab, a, 0, b)
	defer func() {
		if recover() == nil {
			t.Error("duplicate entry did not panic")
		}
	}()
	// Replaying the same store without the old value simulates a barrier
	// bug: the entry already exists.
	tab.PointerWrite(h.Lookup(a), 0, heap.NilSlot, h.Lookup(b))
}

func TestPurgeDeadMissingObjectPanics(t *testing.T) {
	h, _, _ := buildHeap(t)
	tab := New(h)
	defer func() {
		if recover() == nil {
			t.Error("PurgeDead of missing object did not panic")
		}
	}()
	tab.PurgeDead(h.Lookup(404))
}

func TestAuditDetectsMissingEntry(t *testing.T) {
	h, a, b := buildHeap(t)
	tab := New(h)
	// Mutate the heap without telling the table.
	h.WriteField(h.Lookup(a), 0, h.Lookup(b))
	if err := tab.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants missed an unrecorded inter-partition pointer")
	}
}

func TestAuditDetectsStaleEntry(t *testing.T) {
	h, a, b := buildHeap(t)
	tab := New(h)
	write(t, h, tab, a, 0, b)
	// Clear the field without telling the table.
	h.WriteField(h.Lookup(a), 0, heap.NilSlot)
	if err := tab.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants missed a stale entry")
	}
}

// TestAuditDetectsCorruption corrupts one structure of an exact table at
// a time. A duplicated entry leaves every heap pointer findable through
// the position maps, so only the counts and the maps' indexing of their
// slices expose it; an entry moved to another partition's set leaves
// every map and count consistent with its slice, so only the scan of the
// heap's fields exposes it.
func TestAuditDetectsCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(h *heap.Heap, tab *Table, a, b heap.OID)
	}{
		{"duplicate entry", func(h *heap.Heap, tab *Table, a, b heap.OID) {
			s := &tab.in[h.PartitionOf(h.Lookup(b))]
			s.entries = append(s.entries, s.entries[0])
		}},
		{"moved entry", func(h *heap.Heap, tab *Table, a, b heap.OID) {
			tab.CorruptFirstEntryForTesting(h.PartitionOf(h.Lookup(b)))
		}},
		{"out-count", func(h *heap.Heap, tab *Table, a, b heap.OID) {
			h.AddOutCount(h.Lookup(b), 1)
		}},
	} {
		h, a, b := buildHeap(t)
		tab := New(h)
		write(t, h, tab, a, 0, b)
		if err := tab.CheckInvariants(); err != nil {
			t.Fatalf("%s: exact table rejected: %v", tc.name, err)
		}
		tc.corrupt(h, tab, a, b)
		if err := tab.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants missed the corruption", tc.name)
		}
	}
}
