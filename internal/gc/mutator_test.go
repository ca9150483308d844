package gc

import (
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/heap"
)

// recordingPolicy captures write-barrier notifications.
type recordingPolicy struct {
	core.NoCollection
	stores []core.StoreContext
	data   []heap.PartitionID
}

func (p *recordingPolicy) Name() string                       { return "Recording" }
func (p *recordingPolicy) PointerStore(ctx core.StoreContext) { p.stores = append(p.stores, ctx) }
func (p *recordingPolicy) DataStore(part heap.PartitionID)    { p.data = append(p.data, part) }

func TestAllocWritesObjectPages(t *testing.T) {
	r := newRig(t, core.NewNoCollection())
	r.alloc(t, 1, 100, 0, heap.NilOID, 0)
	st := r.buf.Stats().App()
	if st.Accesses != 1 {
		t.Fatalf("accesses = %d, want 1 page write for a 100-byte object", st.Accesses)
	}
	// A multi-page object touches several pages (512-byte pages here).
	r.alloc(t, 2, 1500, 0, heap.NilOID, 0)
	if got := r.buf.Stats().App().Accesses - st.Accesses; got < 3 {
		t.Fatalf("1500-byte object touched %d pages, want >= 3", got)
	}
}

func TestAllocWithParentPerformsCreationStore(t *testing.T) {
	pol := &recordingPolicy{}
	r := newRig(t, pol)
	r.alloc(t, 1, 100, 2, heap.NilOID, 0)
	overwrote := r.alloc(t, 2, 100, 0, 1, 1)
	if got := r.field(1, 1); got != 2 {
		t.Fatalf("parent field = %d, want 2", got)
	}
	if len(pol.stores) != 1 {
		t.Fatalf("policy saw %d stores, want 1", len(pol.stores))
	}
	ctx := pol.stores[0]
	if !ctx.Creation || ctx.Src != 1 || ctx.New != 2 || ctx.Overwrite() {
		t.Fatalf("creation store context = %+v", ctx)
	}
	if overwrote {
		t.Fatal("creation store into a nil field reported as overwrite")
	}
	// A second creating store into the same field overwrites the first
	// child.
	if !r.alloc(t, 3, 100, 0, 1, 1) || !pol.stores[1].Overwrite() {
		t.Fatal("creation store over a non-nil field not reported as overwrite")
	}
}

func TestAllocErrors(t *testing.T) {
	r := newRig(t, core.NewNoCollection())
	if _, err := r.mut.Alloc(1, 100, 2, 99, 0); err == nil {
		t.Error("missing parent accepted")
	}
	r.alloc(t, 1, 100, 1, heap.NilOID, 0)
	if _, err := r.mut.Alloc(2, 100, 0, 1, 5); err == nil {
		t.Error("out-of-range parent field accepted")
	}
	if _, err := r.mut.Alloc(3, 0, 0, heap.NilOID, 0); err == nil {
		t.Error("zero size accepted")
	}
}

func TestWriteBarrierContext(t *testing.T) {
	pol := &recordingPolicy{}
	r := newRig(t, pol)
	r.alloc(t, 1, 100, 2, heap.NilOID, 0)
	r.root(t, 1)
	r.alloc(t, 2, 100, 0, heap.NilOID, 0)
	r.alloc(t, 3, 100, 0, heap.NilOID, 0)

	first := r.write(t, 1, 0, 2)
	second := r.write(t, 1, 0, 3)
	if first || !second {
		t.Fatalf("overwrote = %v, %v; want false, true", first, second)
	}
	if len(pol.stores) != 2 {
		t.Fatalf("policy saw %d stores", len(pol.stores))
	}
	ctx1, ctx2 := pol.stores[0], pol.stores[1]
	if ctx1.Overwrite() || ctx1.New != 2 {
		t.Fatalf("first store ctx = %+v", ctx1)
	}
	if !ctx2.Overwrite() || ctx2.Old != 2 || ctx2.New != 3 {
		t.Fatalf("second store ctx = %+v", ctx2)
	}
	if ctx2.OldPart != r.partOf(2) {
		t.Fatalf("OldPart = %v", ctx2.OldPart)
	}
	// Weight of object 2 at overwrite time: root(1) stored it, so w=2.
	if ctx2.OldWeight != 2 {
		t.Fatalf("OldWeight = %d, want 2", ctx2.OldWeight)
	}
	if got := r.mut.Stats().TotalOverwrites; got != 1 {
		t.Fatalf("overwrites = %d, want 1", got)
	}
}

func TestWriteMaintainsWeights(t *testing.T) {
	r := newRig(t, core.NewNoCollection())
	r.alloc(t, 1, 100, 2, heap.NilOID, 0)
	r.root(t, 1)
	if got := r.weight(1); got != 1 {
		t.Fatalf("root weight = %d, want 1", got)
	}
	r.alloc(t, 2, 100, 2, 1, 0) // creation store propagates weight
	if got := r.weight(2); got != 2 {
		t.Fatalf("child weight = %d, want 2", got)
	}
	r.alloc(t, 3, 100, 2, 2, 0)
	if got := r.weight(3); got != 3 {
		t.Fatalf("grandchild weight = %d, want 3", got)
	}
	// A shortcut edge from the root lowers 3's weight.
	r.write(t, 1, 1, 3)
	if got := r.weight(3); got != 2 {
		t.Fatalf("after shortcut, weight = %d, want 2", got)
	}
}

func TestWriteErrors(t *testing.T) {
	r := newRig(t, core.NewNoCollection())
	r.alloc(t, 1, 100, 1, heap.NilOID, 0)
	if _, err := r.mut.Write(99, 0, heap.NilOID); err == nil {
		t.Error("write to missing object accepted")
	}
	if _, err := r.mut.Write(1, 0, 99); err == nil {
		t.Error("write of missing target accepted")
	}
	if _, err := r.mut.Write(1, 3, heap.NilOID); err == nil {
		t.Error("write to out-of-range field accepted")
	}
}

func TestWriteUpdatesRemset(t *testing.T) {
	r := newRig(t, core.NewNoCollection())
	// Two partitions: fill the first.
	r.alloc(t, 1, 100, 2, heap.NilOID, 0)
	r.alloc(t, 2, 3996, 0, heap.NilOID, 0)
	r.alloc(t, 3, 100, 0, heap.NilOID, 0)
	pa, pb := r.partOf(1), r.partOf(3)
	if pa == pb {
		t.Fatal("setup: need two partitions")
	}
	r.write(t, 1, 0, 3)
	if r.rem.InCount(pb) != 1 {
		t.Fatalf("InCount = %d, want 1", r.rem.InCount(pb))
	}
	r.write(t, 1, 0, heap.NilOID)
	if r.rem.InCount(pb) != 0 {
		t.Fatalf("InCount after clear = %d, want 0", r.rem.InCount(pb))
	}
	if msg := r.rem.Audit(); msg != "" {
		t.Fatal(msg)
	}
}

func TestModifyNotifiesDataStoreOnly(t *testing.T) {
	pol := &recordingPolicy{}
	r := newRig(t, pol)
	r.alloc(t, 1, 100, 1, heap.NilOID, 0)
	if err := r.mut.Modify(1); err != nil {
		t.Fatal(err)
	}
	if len(pol.data) != 1 || pol.data[0] != r.partOf(1) {
		t.Fatalf("data stores = %v", pol.data)
	}
	if len(pol.stores) != 0 {
		t.Fatal("Modify produced a pointer-store notification")
	}
	if err := r.mut.Modify(42); err == nil {
		t.Error("Modify of missing object accepted")
	}
}

func TestReadChargesAppIO(t *testing.T) {
	r := newRig(t, core.NewNoCollection())
	r.alloc(t, 1, 1500, 0, heap.NilOID, 0)
	before := r.buf.Stats().App().Accesses
	if err := r.mut.Read(1); err != nil {
		t.Fatal(err)
	}
	if got := r.buf.Stats().App().Accesses - before; got < 3 {
		t.Fatalf("read touched %d pages, want >= 3 for 1500 bytes / 512-byte pages", got)
	}
	if err := r.mut.Read(42); err == nil {
		t.Error("Read of missing object accepted")
	}
}

func TestMutatorStats(t *testing.T) {
	r := newRig(t, core.NewNoCollection())
	r.alloc(t, 1, 100, 2, heap.NilOID, 0)
	r.alloc(t, 2, 100, 0, 1, 0) // creation store
	r.write(t, 1, 1, 2)         // plain store
	r.write(t, 1, 1, heap.NilOID)
	if err := r.mut.Read(1); err != nil {
		t.Fatal(err)
	}
	if err := r.mut.Modify(1); err != nil {
		t.Fatal(err)
	}
	st := r.mut.Stats()
	if st.PointerStores != 3 {
		t.Errorf("PointerStores = %d, want 3", st.PointerStores)
	}
	if st.TotalOverwrites != 1 {
		t.Errorf("TotalOverwrites = %d, want 1", st.TotalOverwrites)
	}
	if st.Reads != 1 || st.DataStores != 1 {
		t.Errorf("Reads/DataStores = %d/%d", st.Reads, st.DataStores)
	}
}

func TestOverwriteCounterReset(t *testing.T) {
	r := newRig(t, core.NewNoCollection())
	r.alloc(t, 1, 100, 1, heap.NilOID, 0)
	r.alloc(t, 2, 100, 0, heap.NilOID, 0)
	for i, target := range []heap.OID{2, heap.NilOID, 2, heap.NilOID} {
		// nil -> 2 is not an overwrite; 2 -> nil is.
		if got, want := r.write(t, 1, 0, target), target == heap.NilOID; got != want {
			t.Fatalf("write %d: overwrote = %v, want %v", i, got, want)
		}
	}
	if got := r.mut.Stats().TotalOverwrites; got != 2 {
		t.Fatalf("TotalOverwrites = %d, want 2", got)
	}
	r.mut.ResetStats()
	if got := r.mut.Stats().TotalOverwrites; got != 0 {
		t.Fatalf("after ResetStats = %d", got)
	}
}

func TestGrowthsCounted(t *testing.T) {
	r := newRig(t, core.NewNoCollection())
	r.alloc(t, 1, 4096, 0, heap.NilOID, 0) // fills partition 0
	r.alloc(t, 2, 4096, 0, heap.NilOID, 0) // must grow
	if got := r.mut.Stats().Growths; got != 1 {
		t.Fatalf("Growths = %d, want 1", got)
	}
}
