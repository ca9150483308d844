package sim

import (
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/workload"
)

// workloadNew wraps workload.New for test brevity.
func workloadNew(t *testing.T, cfg workload.Config) (*workload.Generator, error) {
	t.Helper()
	return workload.New(cfg)
}

func TestGlobalSweepExtension(t *testing.T) {
	base := smallSim(core.NameUpdatedPointer)
	wl := smallWorkload()
	wl.DenseEdgeFraction = 0.3 // lots of cross-partition references

	plain, _, err := RunWorkload(base, wl)
	if err != nil {
		t.Fatal(err)
	}
	if plain.GlobalSweeps != 0 {
		t.Fatalf("sweeps ran without being configured: %d", plain.GlobalSweeps)
	}

	swept := base
	swept.GlobalSweepEvery = 3
	withSweep, _, err := RunWorkload(swept, wl)
	if err != nil {
		t.Fatal(err)
	}
	if withSweep.GlobalSweeps == 0 {
		t.Fatal("configured sweeps never ran")
	}
	// Breaking nepotism can only help reclamation on the same trace.
	if withSweep.ReclaimedBytes < plain.ReclaimedBytes {
		t.Fatalf("sweeping reclaimed less: %d < %d", withSweep.ReclaimedBytes, plain.ReclaimedBytes)
	}
}

func TestAllocationTriggerExtension(t *testing.T) {
	cfg := smallSim(core.NameUpdatedPointer)
	cfg.TriggerOverwrites = 0
	cfg.TriggerAllocationBytes = 20_000
	res, _, err := RunWorkload(cfg, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.Collections == 0 {
		t.Fatal("allocation trigger never fired")
	}
	if res.ReclaimedBytes == 0 {
		t.Fatal("allocation-triggered collections reclaimed nothing")
	}
}

func TestInspectPartitions(t *testing.T) {
	s, err := New(smallSim(core.NameUpdatedPointer))
	if err != nil {
		t.Fatal(err)
	}
	g, err := workloadNew(t, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(s); err != nil {
		t.Fatal(err)
	}
	parts := s.InspectPartitions()
	if len(parts) != s.Heap().NumPartitions() {
		t.Fatalf("got %d partition rows, heap has %d", len(parts), s.Heap().NumPartitions())
	}
	var emptyCount int
	var totalUsed, totalLive, totalGarbage int64
	for i, p := range parts {
		if int(p.ID) != i {
			t.Fatalf("row %d has ID %d", i, p.ID)
		}
		if p.UsedBytes != p.LiveBytes+p.GarbageBytes {
			t.Fatalf("partition %d: used %d != live %d + garbage %d",
				p.ID, p.UsedBytes, p.LiveBytes, p.GarbageBytes)
		}
		if p.GarbageBytes < 0 || p.LiveBytes < 0 {
			t.Fatalf("partition %d: negative split %+v", p.ID, p)
		}
		if p.Empty {
			emptyCount++
			if p.UsedBytes != 0 || p.Objects != 0 {
				t.Fatalf("empty partition %d is occupied: %+v", p.ID, p)
			}
		}
		totalUsed += p.UsedBytes
		totalLive += p.LiveBytes
		totalGarbage += p.GarbageBytes
	}
	if emptyCount != 1 {
		t.Fatalf("found %d empty partitions, want 1", emptyCount)
	}
	if totalUsed != s.Heap().OccupiedBytes() {
		t.Fatalf("sum of used %d != occupied %d", totalUsed, s.Heap().OccupiedBytes())
	}
	if totalGarbage == 0 {
		t.Fatal("no garbage anywhere after churn (implausible)")
	}
}

func TestClientServerExtension(t *testing.T) {
	cfg := smallSim(core.NameUpdatedPointer)
	cfg.ClientCachePages = 1 // tiny client cache: lots of network traffic
	res, _, err := RunWorkload(cfg, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIOs == 0 {
		t.Fatal("no network transfers recorded")
	}
	if res.DiskTotalIOs == 0 {
		t.Fatal("no server disk operations recorded")
	}
	if res.DiskTotalIOs > res.TotalIOs {
		t.Fatalf("disk ops %d exceed network transfers %d", res.DiskTotalIOs, res.TotalIOs)
	}
	if res.DiskAppIOs+res.DiskGCIOs != res.DiskTotalIOs {
		t.Fatal("disk attribution does not sum")
	}
	if res.Collections == 0 || res.ReclaimedBytes == 0 {
		t.Fatal("collection did not function in client/server mode")
	}
	// The exact network and disk counts, pinned so that a change to how
	// the client reaches its server shows up as a moved count.
	type ioCounts struct{ app, gc, diskApp, diskGC, diskTotal int64 }
	counts := func(r Result) ioCounts {
		return ioCounts{r.AppIOs, r.GCIOs, r.DiskAppIOs, r.DiskGCIOs, r.DiskTotalIOs}
	}
	if got, want := counts(res), (ioCounts{5331, 3367, 1926, 140, 2066}); got != want {
		t.Errorf("cold client/server counts %+v, want %+v", got, want)
	}
	// A warm start restarts the server's counters with the client's: the
	// build phase's disk traffic leaves the window with its network
	// traffic.
	warm := cfg
	warm.WarmStart = true
	resWarm, _, err := RunWorkload(warm, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := counts(resWarm), (ioCounts{4389, 3367, 1913, 140, 2053}); got != want {
		t.Errorf("warm client/server counts %+v, want %+v", got, want)
	}

	// Single-tier mode reports no disk split.
	plain, _, err := RunWorkload(smallSim(core.NameUpdatedPointer), smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if plain.DiskTotalIOs != 0 {
		t.Fatal("single-tier run reported server disk I/Os")
	}

	// A larger client cache absorbs traffic: fewer network transfers.
	bigger := cfg
	bigger.ClientCachePages = 8
	res2, _, err := RunWorkload(bigger, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res2.TotalIOs >= res.TotalIOs {
		t.Fatalf("bigger client cache did not reduce network traffic: %d >= %d",
			res2.TotalIOs, res.TotalIOs)
	}
}

func TestClientServerValidation(t *testing.T) {
	cfg := smallSim(core.NameRandom)
	cfg.ClientCachePages = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative client cache accepted")
	}
}

func TestWarmStartExtension(t *testing.T) {
	cold := smallSim(core.NameUpdatedPointer)
	warm := cold
	warm.WarmStart = true
	coldRes, _, err := RunWorkload(cold, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	warmRes, _, err := RunWorkload(warm, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	// The warm window excludes the build phase: fewer events, fewer app
	// I/Os, same end state.
	if warmRes.Events >= coldRes.Events {
		t.Fatalf("warm events %d not below cold %d", warmRes.Events, coldRes.Events)
	}
	if warmRes.AppIOs >= coldRes.AppIOs {
		t.Fatalf("warm app I/Os %d not below cold %d", warmRes.AppIOs, coldRes.AppIOs)
	}
	if warmRes.FinalOccupiedBytes != coldRes.FinalOccupiedBytes {
		t.Fatalf("end states differ: warm %d cold %d",
			warmRes.FinalOccupiedBytes, coldRes.FinalOccupiedBytes)
	}
	if warmRes.FinalLiveBytes != coldRes.FinalLiveBytes {
		t.Fatal("live bytes differ between warm and cold runs of the same trace")
	}
	// Garbage accounting stays coherent in the warm window.
	if warmRes.ReclaimedBytes > warmRes.ActualGarbageBytes {
		t.Fatalf("warm reclaimed %d > actual garbage %d",
			warmRes.ReclaimedBytes, warmRes.ActualGarbageBytes)
	}
	if f := warmRes.FractionReclaimed(); f <= 0 || f > 1 {
		t.Fatalf("warm fraction reclaimed = %v", f)
	}
}

func TestTriggerIntervalControlsCollectionCount(t *testing.T) {
	// Metamorphic check: halving the trigger interval on the identical
	// trace roughly doubles the number of collections (within rounding),
	// because collection count = overwrites / interval and overwrites are
	// a property of the trace alone.
	run := func(interval int64) Result {
		cfg := smallSim(core.NameRandom)
		cfg.TriggerOverwrites = interval
		res, _, err := RunWorkload(cfg, smallWorkload())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(20), run(40)
	if a.Overwrites != b.Overwrites {
		t.Fatalf("overwrites differ across trigger settings: %d vs %d (trace not invariant)",
			a.Overwrites, b.Overwrites)
	}
	wantA, wantB := a.Overwrites/20, a.Overwrites/40
	if a.Collections != wantA {
		t.Errorf("interval 20: %d collections, want %d", a.Collections, wantA)
	}
	if b.Collections != wantB {
		t.Errorf("interval 40: %d collections, want %d", b.Collections, wantB)
	}
}

func TestTriggerValidationRequiresOne(t *testing.T) {
	cfg := smallSim(core.NameRandom)
	cfg.TriggerOverwrites = 0
	cfg.TriggerAllocationBytes = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("config with no trigger accepted")
	}
	cfg.GlobalSweepEvery = -1
	cfg.TriggerOverwrites = 10
	if _, err := New(cfg); err == nil {
		t.Fatal("negative GlobalSweepEvery accepted")
	}
}
