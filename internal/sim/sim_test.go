package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

// smallWorkload is a fast workload for tests: ~12 partitions at 16 KB
// each, a handful of collections.
func smallWorkload() workload.Config {
	cfg := workload.DefaultConfig()
	cfg.TargetLiveBytes = 60_000
	cfg.TotalAllocBytes = 200_000
	cfg.MinDeletions = 150
	cfg.MeanTreeNodes = 120
	// Scale large leaves down with the 16 KB test partitions.
	cfg.LargeObjectSize = 4096
	cfg.LargeEvery = 160
	return cfg
}

func smallSim(policy string) Config {
	return Config{
		Policy:            policy,
		Seed:              1,
		Heap:              heap.Config{PageSize: 8192, PartitionPages: 2},
		TriggerOverwrites: 20,
	}
}

// remsetAudit fails a run when, after any collection, the remembered
// sets disagree with a brute-force rescan of the heap.
func remsetAudit() AuditConfig {
	return AuditConfig{
		Check: func(s *Sim) error {
			if msg := s.Remset().Audit(); msg != "" {
				return fmt.Errorf("remembered sets inconsistent: %s", msg)
			}
			return nil
		},
		EveryCollections: 1,
	}
}

func TestRunAllPoliciesSmall(t *testing.T) {
	for _, policy := range core.Names() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			cfg := smallSim(policy)
			cfg.Audit = remsetAudit()
			res, wl, err := RunWorkload(cfg, smallWorkload())
			if err != nil {
				t.Fatal(err)
			}
			if res.Events != wl.Events {
				t.Errorf("events %d != workload %d", res.Events, wl.Events)
			}
			if res.TotalIOs != res.AppIOs+res.GCIOs {
				t.Errorf("TotalIOs %d != App %d + GC %d", res.TotalIOs, res.AppIOs, res.GCIOs)
			}
			if res.AppIOs == 0 {
				t.Error("no application I/O")
			}
			if res.ActualGarbageBytes <= 0 {
				t.Errorf("ActualGarbageBytes = %d", res.ActualGarbageBytes)
			}
			if res.ReclaimedBytes > res.ActualGarbageBytes {
				t.Errorf("reclaimed %d > actual garbage %d", res.ReclaimedBytes, res.ActualGarbageBytes)
			}
			if f := res.FractionReclaimed(); f < 0 || f > 1 {
				t.Errorf("fraction reclaimed %v outside [0,1]", f)
			}
			if res.MaxOccupiedBytes < res.FinalOccupiedBytes {
				t.Errorf("max occupied %d below final %d", res.MaxOccupiedBytes, res.FinalOccupiedBytes)
			}
			if policy == core.NameNoCollection {
				if res.Collections != 0 || res.GCIOs != 0 || res.ReclaimedBytes != 0 {
					t.Errorf("NoCollection collected: %+v", res)
				}
				if res.MaxOccupiedBytes != res.TotalAllocatedBytes {
					t.Errorf("NoCollection max occupied %d != total allocated %d",
						res.MaxOccupiedBytes, res.TotalAllocatedBytes)
				}
			} else {
				if res.Collections == 0 {
					t.Error("no collections despite trigger")
				}
				if res.GCIOs == 0 {
					t.Error("collections performed no I/O")
				}
				if res.ReclaimedBytes == 0 {
					t.Error("nothing reclaimed")
				}
			}
		})
	}
}

func TestSimDeterministic(t *testing.T) {
	run := func() Result {
		res, _, err := RunWorkload(smallSim(core.NameUpdatedPointer), smallWorkload())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical configs diverged:\n%+v\n%+v", a, b)
	}
}

func TestRandomPolicyDeterministicPerSimSeed(t *testing.T) {
	run := func(seed int64) Result {
		cfg := smallSim(core.NameRandom)
		cfg.Seed = seed
		res, _, err := RunWorkload(cfg, smallWorkload())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if !reflect.DeepEqual(run(7), run(7)) {
		t.Fatal("same sim seed diverged")
	}
	if reflect.DeepEqual(run(7), run(8)) {
		t.Fatal("different sim seeds produced identical results (suspicious)")
	}
}

func TestTraceFileReplayMatchesDirectStreaming(t *testing.T) {
	// Write the workload to a trace file, then replay; the result must be
	// identical to streaming the generator straight into the simulator.
	wlCfg := smallWorkload()
	path := filepath.Join(t.TempDir(), "small.odbgcck")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewChunkWriter(f, wlCfg.Fingerprint(), 4096)
	g, err := workload.New(wlCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(smallSim(core.NameUpdatedPointer))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := trace.OpenChunkStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Replay(s); err != nil {
		t.Fatal(err)
	}
	replayed := s.Finish()

	direct, _, err := RunWorkload(smallSim(core.NameUpdatedPointer), wlCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, direct) {
		t.Fatalf("replayed result differs from direct:\n%+v\n%+v", replayed, direct)
	}
}

func TestSampling(t *testing.T) {
	cfg := smallSim(core.NameMostGarbage)
	cfg.SampleEvery = 1000
	res, _, err := RunWorkload(cfg, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	// One sample every SampleEvery events, numbered from 1; live data
	// never exceeds occupied storage, which never exceeds the footprint.
	for i, smp := range res.Samples {
		if smp.Seq != int64(i)+1 || smp.Events != int64(i+1)*cfg.SampleEvery {
			t.Fatalf("sample %d: seq %d at %d events", i, smp.Seq, smp.Events)
		}
		if smp.LiveBytes > smp.OccupiedBytes || smp.OccupiedBytes > smp.FootprintBytes {
			t.Fatalf("sample %d: live %d, occupied %d, footprint %d", i, smp.LiveBytes, smp.OccupiedBytes, smp.FootprintBytes)
		}
	}
}

func TestNoSamplingByDefault(t *testing.T) {
	res, _, err := RunWorkload(smallSim(core.NameRandom), smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != nil {
		t.Fatal("samples recorded without SampleEvery")
	}
}

func TestRunSeedsAndAggregates(t *testing.T) {
	results, err := RunSeeds(smallSim(core.NameUpdatedPointer), smallWorkload(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	// Seeds must differ run to run.
	if reflect.DeepEqual(results[0], results[1]) && reflect.DeepEqual(results[1], results[2]) {
		t.Fatal("all seeded runs identical")
	}
	agg := Aggregates(results)
	if agg.N != 3 || agg.Policy != core.NameUpdatedPointer {
		t.Fatalf("agg = %+v", agg)
	}
	if agg.TotalIOs.Mean <= 0 || agg.ReclaimedKB.Mean <= 0 {
		t.Fatalf("agg means: %+v", agg)
	}
	if agg.FractionReclaimed.Mean <= 0 || agg.FractionReclaimed.Mean > 100 {
		t.Fatalf("fraction reclaimed %% = %v", agg.FractionReclaimed.Mean)
	}
}

func TestRunSeedsParallelDeterminism(t *testing.T) {
	// Parallel execution must return exactly what sequential per-seed
	// runs produce, in seed order.
	cfg := smallSim(core.NameUpdatedPointer)
	wl := smallWorkload()
	parallel, err := RunSeeds(cfg, wl, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		sc, w := cfg, wl
		w.Seed = wl.Seed + int64(i)
		sc.Seed = cfg.Seed + 1000 + int64(i)
		want, _, err := RunWorkload(sc, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parallel[i], want) {
			t.Fatalf("seed %d: parallel result differs:\n%+v\n%+v", i, parallel[i], want)
		}
	}
	again, err := RunSeeds(cfg, wl, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if !reflect.DeepEqual(again[i], parallel[i]) {
			t.Fatalf("seed %d: rerun differs", i)
		}
	}
}

func TestRunSeedsValidation(t *testing.T) {
	if _, err := RunSeeds(smallSim(core.NameRandom), smallWorkload(), 0); err == nil {
		t.Fatal("zero seeds accepted")
	}
}

func TestAggregatesMixedPoliciesPanics(t *testing.T) {
	a, _, err := RunWorkload(smallSim(core.NameRandom), smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunWorkload(smallSim(core.NameMostGarbage), smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mixed-policy aggregate did not panic")
		}
	}()
	Aggregates([]Result{a, b})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Policy: "UpdatedPointer", TriggerOverwrites: 0},
		{Policy: "UpdatedPointer", TriggerOverwrites: -1},
		{Policy: "UpdatedPointer", TriggerOverwrites: 10, BufferPages: -1},
		{Policy: "UpdatedPointer", TriggerOverwrites: 10, SampleEvery: -1},
		{Policy: "UpdatedPointer", TriggerOverwrites: 10, CollectPartitions: -1},
		{Policy: "NoSuchPolicy", TriggerOverwrites: 10},
	}
	for i, cfg := range bad {
		if cfg.Heap.PageSize == 0 {
			cfg.Heap = heap.DefaultConfig()
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestCreatingOverwriteFiresTrigger: a creating store that replaces a
// non-nil pointer is an overwrite, and the trigger must count it at its
// own event, not at some later write.
func TestCreatingOverwriteFiresTrigger(t *testing.T) {
	cfg := DefaultConfig(core.NameUpdatedPointer)
	cfg.TriggerOverwrites = 1
	var fired []int64
	cfg.Record.Activation = func(a ActivationRecord) { fired = append(fired, a.Events) }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []trace.Event{
		{Kind: trace.KindCreate, OID: 1, Size: 100, NFields: 1},
		{Kind: trace.KindRoot, OID: 1},
		{Kind: trace.KindCreate, OID: 2, Size: 100, Parent: 1, ParentField: 0},
		{Kind: trace.KindCreate, OID: 3, Size: 100, Parent: 1, ParentField: 0}, // overwrites 2
	} {
		if err := s.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	res := s.Finish()
	if res.Overwrites != 1 {
		t.Fatalf("Overwrites = %d, want 1", res.Overwrites)
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("activations fired after events %v, want one after event 3 (the overwriting create)", fired)
	}
}

func TestEmitAfterFinishFails(t *testing.T) {
	s, err := New(smallSim(core.NameRandom))
	if err != nil {
		t.Fatal(err)
	}
	s.Finish()
	if err := s.Emit(trace.Event{Kind: trace.KindCreate, OID: 1, Size: 100}); err == nil {
		t.Fatal("Emit after Finish accepted")
	}
}

func TestMultiPartitionCollectionExtension(t *testing.T) {
	one := smallSim(core.NameMostGarbage)
	two := one
	two.CollectPartitions = 2
	r1, _, err := RunWorkload(one, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := RunWorkload(two, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Collections <= r1.Collections {
		t.Fatalf("top-2 collection ran %d partition collections vs %d for top-1",
			r2.Collections, r1.Collections)
	}
}

// TestOraclePolicyDominatesRandom checks the fundamental shape on which
// the whole paper rests: MostGarbage reclaims at least as much garbage as
// Random over a few seeds.
func TestOraclePolicyDominatesRandom(t *testing.T) {
	sum := func(policy string) float64 {
		results, err := RunSeeds(smallSim(policy), smallWorkload(), 4)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, r := range results {
			total += float64(r.ReclaimedBytes)
		}
		return total
	}
	mg, rnd := sum(core.NameMostGarbage), sum(core.NameRandom)
	if mg < rnd {
		t.Fatalf("MostGarbage reclaimed %v < Random %v", mg, rnd)
	}
}
