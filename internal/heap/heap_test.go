package heap

import (
	"errors"
	"strings"
	"testing"
	"unsafe"
)

func testConfig() Config {
	return Config{PageSize: 8192, PartitionPages: 4, ReserveEmpty: true}
}

func mustNew(t *testing.T, cfg Config) *Heap {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return h
}

func mustAlloc(t *testing.T, h *Heap, oid OID, size int64, nfields int, parent OID) Slot {
	t.Helper()
	s, _, err := h.Alloc(oid, size, nfields, h.Lookup(parent))
	if err != nil {
		t.Fatalf("Alloc(%d): %v", oid, err)
	}
	return s
}

// write stores target into field f of src, naming both by OID, and
// returns the OID the field held before.
func write(h *Heap, src OID, f int, target OID) OID {
	return h.OID(h.WriteField(h.Lookup(src), f, h.Lookup(target)))
}

// field returns the OID held in field f of src.
func field(h *Heap, src OID, f int) OID {
	return h.OID(h.Fields(h.Lookup(src))[f])
}

func TestNewValidatesConfig(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string // in the error
	}{
		{Config{PageSize: 0, PartitionPages: 4}, "page size 0"},
		{Config{PageSize: -1, PartitionPages: 4}, "page size -1"},
		{Config{PageSize: 3000, PartitionPages: 4}, "page size 3000 must be a power of two"},
		{Config{PageSize: 6144, PartitionPages: 4}, "page size 6144 must be a power of two"},
		{Config{PageSize: 8192, PartitionPages: 0}, "partition pages 0"},
		{Config{PageSize: 8192, PartitionPages: -3}, "partition pages -3"},
		{Config{PageSize: 1 << 20, PartitionPages: 1 << 13}, "4 GiB"}, // 8 GiB partitions
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(%+v): err = %v, want error containing %q", tc.cfg, err, tc.want)
		}
	}
}

// TestSlotRecordSize pins the per-object record at 48 bytes: the slot
// storage is most of the simulator's memory per resident object.
func TestSlotRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(slotRec{}); got != 48 {
		t.Fatalf("slotRec is %d bytes, want 48", got)
	}
}

func TestNewReservesEmptyPartition(t *testing.T) {
	h := mustNew(t, testConfig())
	if got := h.NumPartitions(); got != 2 {
		t.Fatalf("NumPartitions = %d, want 2 (one allocatable + one empty)", got)
	}
	if h.EmptyPartition() == NoPartition {
		t.Fatal("EmptyPartition = NoPartition, want a reserved partition")
	}
	if used := h.Partition(h.EmptyPartition()).Used(); used != 0 {
		t.Fatalf("empty partition has %d used bytes", used)
	}
}

func TestNewWithoutReservedEmpty(t *testing.T) {
	cfg := testConfig()
	cfg.ReserveEmpty = false
	h := mustNew(t, cfg)
	if got := h.NumPartitions(); got != 1 {
		t.Fatalf("NumPartitions = %d, want 1", got)
	}
	if h.EmptyPartition() != NoPartition {
		t.Fatalf("EmptyPartition = %d, want NoPartition", h.EmptyPartition())
	}
}

func TestAllocBasics(t *testing.T) {
	h := mustNew(t, testConfig())
	obj := mustAlloc(t, h, 1, 100, 3, NilOID)
	if h.OID(obj) != 1 || h.Size(obj) != 100 || h.NumFields(obj) != 3 {
		t.Fatalf("object = %+v", h.slots[obj])
	}
	if h.PartitionOf(obj) == h.EmptyPartition() {
		t.Fatal("allocated into the reserved empty partition")
	}
	if h.Weight(obj) != MaxWeight {
		t.Fatalf("new object weight = %d, want %d", h.Weight(obj), MaxWeight)
	}
	if !h.Contains(1) || h.Lookup(1) != obj {
		t.Fatal("OID index does not resolve the new OID")
	}
	if h.TotalAllocatedBytes() != 100 || h.TotalAllocatedObjects() != 1 {
		t.Fatalf("cumulative accounting = (%d bytes, %d objects)",
			h.TotalAllocatedBytes(), h.TotalAllocatedObjects())
	}
}

func TestAllocRejectsBadSizes(t *testing.T) {
	h := mustNew(t, testConfig())
	if _, _, err := h.Alloc(1, 0, 0, NilSlot); err == nil {
		t.Error("Alloc size 0: want error")
	}
	if _, _, err := h.Alloc(2, -5, 0, NilSlot); err == nil {
		t.Error("Alloc negative size: want error")
	}
	_, _, err := h.Alloc(3, h.Config().PartitionBytes()+1, 0, NilSlot)
	if !errors.Is(err, ErrObjectTooLarge) {
		t.Errorf("oversized Alloc: err = %v, want ErrObjectTooLarge", err)
	}
}

func TestAllocDuplicateOIDErrors(t *testing.T) {
	h := mustNew(t, testConfig())
	mustAlloc(t, h, 1, 100, 0, NilOID)
	_, _, err := h.Alloc(1, 100, 0, NilSlot)
	if !errors.Is(err, ErrResident) || !strings.Contains(err.Error(), "Alloc(1)") {
		t.Fatalf("duplicate Alloc: err = %v, want ErrResident naming OID 1", err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("failed Alloc changed the heap: %v", err)
	}
}

func TestAllocRejectsTooManyFields(t *testing.T) {
	h := mustNew(t, testConfig())
	if _, _, err := h.Alloc(1, 100, MaxFields, NilSlot); err != nil {
		t.Fatalf("Alloc with MaxFields fields: %v", err)
	}
	_, _, err := h.Alloc(2, 100, MaxFields+1, NilSlot)
	if !errors.Is(err, ErrTooManyFields) {
		t.Fatalf("Alloc with MaxFields+1 fields: err = %v, want ErrTooManyFields", err)
	}
	if _, _, err := h.Alloc(3, 100, -1, NilSlot); err == nil {
		t.Fatal("Alloc with a negative field count: want error")
	}
	if _, _, err := h.Alloc(NilOID, 100, 0, NilSlot); err == nil {
		t.Fatal("Alloc of the nil OID: want error")
	}
}

// TestAllocFailsPastSlotLimit lowers the slot limit so the error that
// guards the 32-bit slot space can be reached.
func TestAllocFailsPastSlotLimit(t *testing.T) {
	defer func(old int) { slotLimit = old }(slotLimit)
	slotLimit = 3
	h := mustNew(t, testConfig())
	for oid := OID(1); oid <= 3; oid++ {
		mustAlloc(t, h, oid, 100, 1, NilOID)
	}
	_, _, err := h.Alloc(4, 100, 1, NilSlot)
	if !errors.Is(err, ErrSlotLimit) || !strings.Contains(err.Error(), "limit of 3") {
		t.Fatalf("Alloc past the slot limit: err = %v, want ErrSlotLimit naming the limit", err)
	}
	h.Discard(h.Lookup(2))
	mustAlloc(t, h, 4, 100, 1, NilOID) // a freed slot is reused
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocPlacesNearParent(t *testing.T) {
	h := mustNew(t, testConfig())
	parent := mustAlloc(t, h, 1, 100, 2, NilOID)
	child := mustAlloc(t, h, 2, 100, 2, 1)
	if h.PartitionOf(child) != h.PartitionOf(parent) {
		t.Fatalf("child partition %d, parent partition %d", h.PartitionOf(child), h.PartitionOf(parent))
	}
	if end := h.AddrOf(parent) + Addr(h.Size(parent)); h.AddrOf(child) != end {
		t.Fatalf("child addr %d, want bump-contiguous %d", h.AddrOf(child), end)
	}
}

func TestAllocOverflowsToOtherPartitionThenGrows(t *testing.T) {
	cfg := testConfig() // partition = 32768 bytes
	h := mustNew(t, cfg)
	part := cfg.PartitionBytes()

	// Fill the first partition exactly.
	mustAlloc(t, h, 1, part, 0, NilOID)
	if h.NumPartitions() != 2 {
		t.Fatalf("NumPartitions = %d after exact fill, want 2", h.NumPartitions())
	}

	// Next allocation cannot use the full partition nor the reserved empty
	// one, so the heap must grow.
	obj, grew, err := h.Alloc(2, 100, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if grew.Added != 1 {
		t.Fatalf("grew.Added = %d, want 1", grew.Added)
	}
	if h.NumPartitions() != 3 {
		t.Fatalf("NumPartitions = %d, want 3", h.NumPartitions())
	}
	if h.PartitionOf(obj) == h.EmptyPartition() {
		t.Fatal("allocated into the reserved empty partition")
	}

	// A further allocation fits in the new partition: no growth.
	_, grew2, err := h.Alloc(3, 100, 0, NilSlot)
	if err != nil {
		t.Fatal(err)
	}
	if grew2.Added != 0 {
		t.Fatalf("grew2.Added = %d, want 0", grew2.Added)
	}
}

func TestAllocPrefersMostFreePartition(t *testing.T) {
	cfg := testConfig()
	h := mustNew(t, cfg)
	part := cfg.PartitionBytes()

	mustAlloc(t, h, 1, part-100, 0, NilOID) // partition 0: 100 free
	obj2 := mustAlloc(t, h, 2, 200, 0, NilOID)
	if h.PartitionOf(obj2) == 0 {
		t.Fatal("200-byte object placed in partition with 100 free bytes")
	}
	// partition h.PartitionOf(obj2) now has part-200 free, more than partition 0.
	obj3 := mustAlloc(t, h, 3, 50, 0, NilOID)
	if h.PartitionOf(obj3) != h.PartitionOf(obj2) {
		t.Fatalf("obj3 in partition %d, want most-free partition %d", h.PartitionOf(obj3), h.PartitionOf(obj2))
	}

	// Evacuate obj2's partition: once it is the reserved empty partition
	// it is never a target, however free, and the partition that was
	// empty before is one.
	oldEmpty, victim := h.EmptyPartition(), h.PartitionOf(obj2)
	h.Move(obj2, oldEmpty)
	h.Move(obj3, oldEmpty)
	h.ResetPartition(victim)
	h.SetEmptyPartition(victim)
	obj4 := mustAlloc(t, h, 4, 50, 0, NilOID)
	if h.PartitionOf(obj4) != oldEmpty {
		t.Fatalf("obj4 in partition %d after SetEmptyPartition(%d), want the old empty partition %d",
			h.PartitionOf(obj4), victim, oldEmpty)
	}

	// Of two partitions with equal free space, the lower ID wins.
	h = mustNew(t, cfg)
	half := part/2 + 1
	a := mustAlloc(t, h, 1, half, 0, NilOID)
	b := mustAlloc(t, h, 2, half, 0, NilOID)
	if h.PartitionOf(a) == h.PartitionOf(b) {
		t.Fatal("setup: two objects of more than half a partition share one")
	}
	c := mustAlloc(t, h, 3, 10, 0, NilOID)
	if want := min(h.PartitionOf(a), h.PartitionOf(b)); h.PartitionOf(c) != want {
		t.Fatalf("obj3 in partition %d, want %d, the lower of two equally free partitions", h.PartitionOf(c), want)
	}
}

func TestWriteFieldReturnsOldValue(t *testing.T) {
	h := mustNew(t, testConfig())
	mustAlloc(t, h, 1, 100, 2, NilOID)
	mustAlloc(t, h, 2, 100, 0, NilOID)
	mustAlloc(t, h, 3, 100, 0, NilOID)

	if old := write(h, 1, 0, 2); old != NilOID {
		t.Fatalf("first store old = %d, want nil", old)
	}
	if old := write(h, 1, 0, 3); old != 2 {
		t.Fatalf("overwrite old = %d, want 2", old)
	}
	if got := field(h, 1, 0); got != 3 {
		t.Fatalf("field = %d, want 3", got)
	}
}

func TestWriteFieldPanics(t *testing.T) {
	h := mustNew(t, testConfig())
	mustAlloc(t, h, 1, 100, 1, NilOID)
	for _, tc := range []struct {
		name string
		src  OID
		f    int
	}{
		{"missing object", 99, 0},
		{"field too high", 1, 1},
		{"negative field", 1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			h.WriteField(h.Lookup(tc.src), tc.f, NilSlot)
		})
	}
}

func TestMoveRelocatesIntoEmptyPartition(t *testing.T) {
	h := mustNew(t, testConfig())
	obj := mustAlloc(t, h, 1, 100, 0, NilOID)
	src := h.PartitionOf(obj)
	dst := h.EmptyPartition()

	h.Move(obj, dst)
	if h.PartitionOf(obj) != dst {
		t.Fatalf("partition = %d, want %d", h.PartitionOf(obj), dst)
	}
	if h.AddrOf(obj) != h.Partition(dst).Base {
		t.Fatalf("addr = %d, want base %d", h.AddrOf(obj), h.Partition(dst).Base)
	}
	if h.Partition(src).Len() != 0 {
		t.Fatal("object still listed in source partition")
	}
	// Source space is not freed until the partition is reset.
	if h.Partition(src).Used() != 100 {
		t.Fatalf("source used = %d, want 100 (no early reuse)", h.Partition(src).Used())
	}
	h.ResetPartition(src)
	if h.Partition(src).Used() != 0 {
		t.Fatal("reset did not free the partition")
	}
}

func TestMoveWithoutRoomPanics(t *testing.T) {
	cfg := testConfig()
	h := mustNew(t, cfg)
	mustAlloc(t, h, 1, cfg.PartitionBytes(), 0, NilOID)
	mustAlloc(t, h, 2, cfg.PartitionBytes(), 0, NilOID) // forces growth
	defer func() {
		if recover() == nil {
			t.Error("Move into full partition did not panic")
		}
	}()
	h.Move(h.Lookup(1), h.PartitionOf(h.Lookup(2)))
}

func TestDiscardRemovesObject(t *testing.T) {
	h := mustNew(t, testConfig())
	obj := mustAlloc(t, h, 1, 100, 0, NilOID)
	p := h.PartitionOf(obj)
	h.Discard(obj)
	if h.Contains(1) {
		t.Fatal("discarded object still resident")
	}
	if h.Partition(p).Len() != 0 {
		t.Fatal("discarded object still in partition set")
	}
}

func TestDiscardRootPanics(t *testing.T) {
	h := mustNew(t, testConfig())
	obj := mustAlloc(t, h, 1, 100, 0, NilOID)
	h.AddRoot(obj)
	defer func() {
		if recover() == nil {
			t.Error("Discard of a root did not panic")
		}
	}()
	h.Discard(obj)
}

func TestResetNonEmptyPartitionPanics(t *testing.T) {
	h := mustNew(t, testConfig())
	obj := mustAlloc(t, h, 1, 100, 0, NilOID)
	defer func() {
		if recover() == nil {
			t.Error("ResetPartition with residents did not panic")
		}
	}()
	h.ResetPartition(h.PartitionOf(obj))
}

func TestSetEmptyPartitionRequiresEmpty(t *testing.T) {
	h := mustNew(t, testConfig())
	obj := mustAlloc(t, h, 1, 100, 0, NilOID)
	defer func() {
		if recover() == nil {
			t.Error("SetEmptyPartition on used partition did not panic")
		}
	}()
	h.SetEmptyPartition(h.PartitionOf(obj))
}

// TestCheckInvariantsNamesFieldArenaDamage plants one fault at a time in
// the per-partition field arenas and checks that CheckInvariants names
// it.
func TestCheckInvariantsNamesFieldArenaDamage(t *testing.T) {
	cases := []struct {
		name  string
		plant func(h *Heap, a, b Slot)
		want  string
	}{
		{"reset without truncation", func(h *Heap, a, b Slot) { h.fields[h.EmptyPartition()] = make([]Slot, 3) }, "holds 3 field words"},
		{"fields past the arena", func(h *Heap, a, b Slot) { h.slots[b].fieldOff += 2 }, "past partition 0's field arena"},
		{"overlapping fields", func(h *Heap, a, b Slot) { h.slots[b].fieldOff-- }, "overlap in partition 0's field arena"},
		{"field names a free slot", func(h *Heap, a, b Slot) { h.Fields(a)[0] = Slot(len(h.slots)) }, "which holds no object"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := mustNew(t, testConfig())
			a := mustAlloc(t, h, 1, 100, 2, NilOID)
			b := mustAlloc(t, h, 2, 100, 2, NilOID)
			if err := h.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			tc.plant(h, a, b)
			if err := h.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestPageRange(t *testing.T) {
	h := mustNew(t, testConfig()) // page size 8192
	for _, tc := range []struct {
		addr        Addr
		size        int64
		first, last PageID
	}{
		{0, 1, 0, 0},
		{0, 8192, 0, 0},
		{0, 8193, 0, 1},
		{8191, 2, 0, 1},
		{8192, 100, 1, 1},
		{16384, 65536, 2, 9}, // a 64 KB large object spans 8 pages
	} {
		first, last := h.PageRange(tc.addr, tc.size)
		if first != tc.first || last != tc.last {
			t.Errorf("PageRange(%d,%d) = (%d,%d), want (%d,%d)",
				tc.addr, tc.size, first, last, tc.first, tc.last)
		}
	}
}

func TestOccupiedAndFootprintBytes(t *testing.T) {
	cfg := testConfig()
	h := mustNew(t, cfg)
	mustAlloc(t, h, 1, 100, 0, NilOID)
	mustAlloc(t, h, 2, 250, 0, NilOID)
	if got := h.OccupiedBytes(); got != 350 {
		t.Fatalf("OccupiedBytes = %d, want 350", got)
	}
	if got := h.FootprintBytes(); got != 2*cfg.PartitionBytes() {
		t.Fatalf("FootprintBytes = %d, want %d", got, 2*cfg.PartitionBytes())
	}
}

func TestRootsSet(t *testing.T) {
	h := mustNew(t, testConfig())
	a := mustAlloc(t, h, 1, 100, 0, NilOID)
	b := mustAlloc(t, h, 2, 100, 0, NilOID)
	h.AddRoot(a)
	if !h.IsRoot(a) || h.IsRoot(b) {
		t.Fatal("root membership wrong")
	}
	if h.NumRoots() != 1 {
		t.Fatalf("NumRoots = %d, want 1", h.NumRoots())
	}
	var seen []OID
	h.Roots(func(s Slot) { seen = append(seen, h.OID(s)) })
	if len(seen) != 1 || seen[0] != 1 {
		t.Fatalf("Roots iterated %v", seen)
	}
}

func TestAddRootMissingObjectPanics(t *testing.T) {
	h := mustNew(t, testConfig())
	defer func() {
		if recover() == nil {
			t.Error("AddRoot of missing object did not panic")
		}
	}()
	h.AddRoot(h.Lookup(42))
}
