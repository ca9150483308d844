package check_test

import (
	"strings"
	"testing"

	"odbgc/internal/check"
	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/sim"
	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

func testWorkload() workload.Config {
	cfg := workload.DefaultConfig()
	cfg.TargetLiveBytes = 200_000
	cfg.TotalAllocBytes = 600_000
	cfg.MinDeletions = 200
	cfg.MeanTreeNodes = 60
	cfg.LargeEvery = 0
	return cfg
}

func testSim(policy string) sim.Config {
	return sim.Config{
		Policy:            policy,
		Seed:              1,
		Heap:              heap.Config{PageSize: 4096, PartitionPages: 8, ReserveEmpty: true},
		TriggerOverwrites: 50,
	}
}

// runInto streams a workload into a fresh simulator and returns it still
// unfinished, so tests can inspect and corrupt its live state.
func runInto(t *testing.T, simCfg sim.Config, wlCfg workload.Config) *sim.Sim {
	t.Helper()
	s, err := sim.New(simCfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g, err := workload.New(wlCfg)
	if err != nil {
		t.Fatalf("workload.New: %v", err)
	}
	if _, err := g.Run(s); err != nil {
		t.Fatalf("workload run: %v", err)
	}
	return s
}

// TestCatalogPassesOnCleanRuns audits every policy's run after every
// collection and a fixed event cadence; a correct simulator must never
// trip an invariant.
func TestCatalogPassesOnCleanRuns(t *testing.T) {
	rt, err := workload.Record(testWorkload())
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	for _, policy := range core.Names() {
		cfg := testSim(policy)
		cfg.Audit = check.Audited(4096)
		if _, err := sim.RunRecorded(cfg, rt); err != nil {
			t.Errorf("policy %s: audited run failed: %v", policy, err)
		}
	}
}

// TestFaultInjectionDetected moves one remembered-set entry into another
// partition's set and demands the audit name the specific invariant that
// broke, through both the direct catalog call and the simulator's Audit
// wrapper.
func TestFaultInjectionDetected(t *testing.T) {
	cfg := testSim(core.NameMutatedPartition)
	cfg.Audit = check.Audited(0)
	s := runInto(t, cfg, testWorkload())
	if err := s.Audit(); err != nil {
		t.Fatalf("audit failed before corruption: %v", err)
	}

	corrupted := false
	for p := 0; p < s.Heap().NumPartitions(); p++ {
		if s.Remset().CorruptFirstEntryForTesting(heap.PartitionID(p)) {
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no remembered-set entry to corrupt; workload too small")
	}

	err := s.Audit()
	if err == nil {
		t.Fatal("audit passed over a corrupted remembered-set entry")
	}
	if !strings.Contains(err.Error(), "missing entry") {
		t.Errorf("audit error does not name the corrupted-entry invariant: %v", err)
	}
	if !strings.Contains(err.Error(), "sim: audit after") {
		t.Errorf("audit error lacks the simulator context wrapper: %v", err)
	}
}

// TestAuditOffZeroAllocs proves the audit wiring costs nothing when off:
// steady-state read and modify events must not allocate. Sim.Emit carries
// the //odbgc:hotpath annotation checked by the hotcall analyzer;
// TestHotpathAnnotationsMatchGuards in internal/analysis keeps the
// annotation and this guard in sync via the declaration below.
//
//odbgc:allocguard sim.Sim.Emit
func TestAuditOffZeroAllocs(t *testing.T) {
	s := runInto(t, testSim(core.NameMutatedPartition), testWorkload())
	var oid heap.OID
	s.Heap().Roots(func(r heap.Slot) {
		if oid == heap.NilOID {
			oid = s.Heap().OID(r)
		}
	})
	if oid == heap.NilOID {
		t.Fatal("no root object")
	}
	read := trace.Event{Kind: trace.KindRead, OID: oid}
	modify := trace.Event{Kind: trace.KindModify, OID: oid}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Emit(read); err != nil {
			t.Fatal(err)
		}
		if err := s.Emit(modify); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Emit with auditing off allocates %v times per read+modify pair, want 0", allocs)
	}
}

// TestRecordOffZeroAllocs proves the structured-recording hooks cost
// nothing when disabled: with Config.Record left zero, steady-state
// events through the hook-guarded trigger paths must not allocate. The
// same //odbgc:hotpath annotation on Sim.Emit covers this wiring.
//
//odbgc:allocguard sim.Sim.Emit
func TestRecordOffZeroAllocs(t *testing.T) {
	cfg := testSim(core.NameUpdatedPointer)
	if cfg.Record.Activation != nil {
		t.Fatal("test premise broken: default config has recording hooks set")
	}
	s := runInto(t, cfg, testWorkload())
	var oid heap.OID
	s.Heap().Roots(func(r heap.Slot) {
		if oid == heap.NilOID {
			oid = s.Heap().OID(r)
		}
	})
	if oid == heap.NilOID {
		t.Fatal("no root object")
	}
	read := trace.Event{Kind: trace.KindRead, OID: oid}
	modify := trace.Event{Kind: trace.KindModify, OID: oid}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Emit(read); err != nil {
			t.Fatal(err)
		}
		if err := s.Emit(modify); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Emit with recording off allocates %v times per read+modify pair, want 0", allocs)
	}
}

func TestDiffResults(t *testing.T) {
	a := sim.Result{Policy: "P", Events: 100, Collections: 12, AppIOs: 7}
	if err := check.DiffResults("left", "right", a, a); err != nil {
		t.Errorf("identical results reported divergent: %v", err)
	}

	b := a
	b.Collections = 13
	b.AppIOs = 9
	err := check.DiffResults("left", "right", a, b)
	if err == nil {
		t.Fatal("divergent results reported identical")
	}
	for _, want := range []string{"AppIOs: 7 vs 9", "2 field(s) differ", "left", "right"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diff report %q missing %q", err, want)
		}
	}

	// Sample divergence is localized to the first differing sample.
	withSamples := func(occupied int64) sim.Result {
		r := a
		r.Samples = []sim.SampleRecord{
			{Seq: 1, Events: 10, OccupiedBytes: 1024},
			{Seq: 2, Events: 20, OccupiedBytes: occupied},
		}
		return r
	}
	err = check.DiffResults("left", "right", withSamples(2048), withSamples(3072))
	if err == nil || !strings.Contains(err.Error(), "Samples[1]") || !strings.Contains(err.Error(), "Events:20") {
		t.Errorf("samples diff not localized to the divergent sample: %v", err)
	}
	if err := check.DiffResults("left", "right", withSamples(2048), a); err == nil || !strings.Contains(err.Error(), "2 vs 0 samples") {
		t.Errorf("missing samples not reported: %v", err)
	}
}

func TestTriggerParity(t *testing.T) {
	mk := func(collections, declined int64) []sim.Result {
		return []sim.Result{{Events: 500, Overwrites: 90, TotalAllocatedBytes: 1 << 20,
			Collections: collections, Declined: declined}}
	}
	ok := map[string][]sim.Result{
		"MutatedPartition": mk(9, 0),
		"NoCollection":     mk(0, 9), // declines every activation
	}
	if err := check.TriggerParity(ok); err != nil {
		t.Errorf("equal activation counts reported divergent: %v", err)
	}

	bad := map[string][]sim.Result{
		"MutatedPartition": mk(9, 0),
		"Random":           mk(8, 0),
	}
	err := check.TriggerParity(bad)
	if err == nil {
		t.Fatal("unequal activation counts passed")
	}
	if !strings.Contains(err.Error(), "trigger") {
		t.Errorf("parity error does not explain the trigger identity: %v", err)
	}
}

// TestSelfCheckShort runs the full differential harness in its CI shape.
func TestSelfCheckShort(t *testing.T) {
	if err := check.SelfCheck(check.Options{Short: true, Logf: t.Logf}); err != nil {
		t.Fatalf("SelfCheck: %v", err)
	}
}
