package shard_test

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"odbgc/internal/check"
	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/shard"
	"odbgc/internal/sim"
	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

// testTrace records the selfcheck-sized workload with cross-tree dense
// edges, so the sharded engine has real cross-shard traffic to exchange.
func testTrace(t testing.TB, seed int64) *workload.RecordedTrace {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.TargetLiveBytes = 350_000
	cfg.TotalAllocBytes = 1_000_000
	cfg.MinDeletions = 400
	cfg.MeanTreeNodes = 80
	cfg.LargeEvery = 500
	cfg.LargeObjectSize = 16384
	cfg.CrossTreeFraction = 0.3
	rt, err := workload.Record(cfg)
	if err != nil {
		t.Fatalf("recording workload: %v", err)
	}
	return rt
}

func testSimCfg(policy string) sim.Config {
	return sim.Config{
		Seed:              1,
		Policy:            policy,
		Heap:              heap.Config{PageSize: 4096, PartitionPages: 8, ReserveEmpty: true},
		TriggerOverwrites: 60,
	}
}

func replayOf(rt *workload.RecordedTrace) func(trace.Sink) error {
	return func(s trace.Sink) error { return rt.Replay(s, nil) }
}

func runSharded(t *testing.T, cfg shard.Config, rt *workload.RecordedTrace) shard.Result {
	t.Helper()
	eng, err := shard.New(cfg)
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	res, err := eng.Run(replayOf(rt))
	if err != nil {
		t.Fatalf("sharded run (parallel=%v): %v", cfg.Parallel, err)
	}
	return res
}

// diffRuns demands two sharded runs be bit-identical everywhere except
// the wall-clock counters and the Parallel echo, which legitimately
// differ between modes.
func diffRuns(t *testing.T, labelA, labelB string, a, b shard.Result) {
	t.Helper()
	if len(a.PerShard) != len(b.PerShard) {
		t.Fatalf("%s has %d shards, %s has %d", labelA, len(a.PerShard), labelB, len(b.PerShard))
	}
	for i := range a.PerShard {
		sa, sb := a.PerShard[i], b.PerShard[i]
		if err := check.DiffResults(labelA, labelB, sa.Result, sb.Result); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		sa.BusyNs, sa.ExchangeNs, sa.Result = 0, 0, sim.Result{}
		sb.BusyNs, sb.ExchangeNs, sb.Result = 0, 0, sim.Result{}
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("shard %d counters diverge:\n%s: %+v\n%s: %+v", i, labelA, sa, labelB, sb)
		}
	}
	a.Parallel, a.BusyNsTotal, a.BusyNsMax, a.PerShard = false, 0, 0, nil
	b.Parallel, b.BusyNsTotal, b.BusyNsMax, b.PerShard = false, 0, 0, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("aggregates diverge:\n%s: %+v\n%s: %+v", labelA, a, labelB, b)
	}
}

// TestParallelMatchesSerial is the engine's determinism contract: for
// every policy and two workload seeds, the goroutine-per-shard engine
// must reproduce the serial engine bit for bit — per-shard results,
// per-partition garbage, and every exchange counter.
func TestParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		rt := testTrace(t, workload.DefaultConfig().Seed+seed)
		if rt.Stats.CrossTreeEdges == 0 {
			t.Fatalf("seed %d: workload produced no cross-tree edges; the exchange path is untested", seed)
		}
		for _, policy := range core.Names() {
			cfg := shard.Config{
				Shards:      4,
				EpochEvents: 1 << 12,
				Sim:         testSimCfg(policy),
			}
			cfg.Sim.Seed += seed
			serial := runSharded(t, cfg, rt)
			cfg.Parallel = true
			parallel := runSharded(t, cfg, rt)
			diffRuns(t, "serial engine", "parallel engine", serial, parallel)
			if serial.ForeignWrites == 0 || serial.MessagesSent == 0 {
				t.Fatalf("policy %s seed %d: no cross-shard traffic (foreign writes %d, messages %d)",
					policy, seed, serial.ForeignWrites, serial.MessagesSent)
			}
		}
	}
}

// TestPolicyFactoryPerShard: a sharded engine builds one policy per
// shard from Config.Sim.PolicyFactory, so its parallel run shares no
// policy state between shard goroutines and reproduces the serial run.
// Under -race (ci.sh) this also shows the per-shard instances are never
// touched by two goroutines.
func TestPolicyFactoryPerShard(t *testing.T) {
	rt := testTrace(t, 3)
	var calls atomic.Int64
	cfg := shard.Config{Shards: 4, EpochEvents: 1 << 12, Sim: testSimCfg("custom")}
	cfg.Sim.PolicyFactory = func() core.Policy {
		calls.Add(1)
		return core.NewUpdatedPointer()
	}
	serial := runSharded(t, cfg, rt)
	if c := calls.Load(); c != 4 {
		t.Fatalf("serial engine called the factory %d times for 4 shards", c)
	}
	cfg.Parallel = true
	parallel := runSharded(t, cfg, rt)
	if c := calls.Load(); c != 8 {
		t.Fatalf("parallel engine called the factory %d times for 4 shards", c-4)
	}
	if err := check.DiffShardRuns("serial engine", "parallel engine", serial, parallel); err != nil {
		t.Fatal(err)
	}
}

// TestSingleShardMatchesPlainSim pins the identity anchor: one shard
// means the demux is a pass-through (dense OIDs map to themselves), no
// write is foreign, and the engine must reproduce the unsharded
// simulator exactly.
func TestSingleShardMatchesPlainSim(t *testing.T) {
	rt := testTrace(t, 11)
	cfg := testSimCfg(core.NameMutatedPartition)
	res := runSharded(t, shard.Config{Shards: 1, EpochEvents: 1 << 12, Sim: cfg}, rt)
	plain, err := sim.RunRecorded(cfg, rt)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	if err := check.DiffResults("sharded(1)", "plain sim", res.PerShard[0].Result, plain); err != nil {
		t.Fatal(err)
	}
	if res.ForeignWrites != 0 || res.DeltasExchanged != 0 || res.MessagesSent != 0 {
		t.Errorf("single-shard run reports cross-shard traffic: %d foreign writes, %d deltas, %d messages",
			res.ForeignWrites, res.DeltasExchanged, res.MessagesSent)
	}
	if res.Events != rt.Stats.Events {
		t.Errorf("engine replayed %d events, trace has %d", res.Events, rt.Stats.Events)
	}
	if res.Trees != rt.Stats.Trees {
		t.Errorf("engine routed %d trees, trace has %d", res.Trees, rt.Stats.Trees)
	}
}

// TestRangeAssignmentMatches runs the serial/parallel comparison once
// under the Range assignment, which skews the shard loads.
func TestRangeAssignmentMatches(t *testing.T) {
	rt := testTrace(t, 5)
	cfg := shard.Config{
		Shards:      3,
		Assignment:  shard.Range,
		RangeBlock:  4,
		EpochEvents: 1 << 12,
		Sim:         testSimCfg(core.NameMutatedObjectYNY),
	}
	serial := runSharded(t, cfg, rt)
	cfg.Parallel = true
	diffRuns(t, "serial engine", "parallel engine", serial, runSharded(t, cfg, rt))
}

// TestEngineConfigErrors exercises every named rejection of Config.
func TestEngineConfigErrors(t *testing.T) {
	base := shard.Config{Shards: 2, Sim: testSimCfg(core.NameMutatedPartition)}
	cases := []struct {
		name string
		mod  func(*shard.Config)
		want string
	}{
		{"zero shards", func(c *shard.Config) { c.Shards = 0 }, "at least 1"},
		{"over cap", func(c *shard.Config) { c.Shards = shard.MaxShards + 1 }, "cap"},
		{"negative block", func(c *shard.Config) { c.RangeBlock = -1 }, "negative"},
		{"negative epoch", func(c *shard.Config) { c.EpochEvents = -1 }, "negative"},
		{"oversized epoch", func(c *shard.Config) { c.EpochEvents = 1<<30 + 1 }, "2^30"},
		{"global sweep", func(c *shard.Config) { c.Sim.GlobalSweepEvery = 5 }, "GlobalSweepEvery"},
		{"warm start", func(c *shard.Config) { c.Sim.WarmStart = true }, "WarmStart"},
		{"sampling", func(c *shard.Config) { c.Sim.SampleEvery = 2000 }, "SampleEvery"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mod(&cfg)
		_, err := shard.New(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestEngineRunsOnce demands the second Run of one engine fail.
func TestEngineRunsOnce(t *testing.T) {
	rt := testTrace(t, 3)
	eng, err := shard.New(shard.Config{Shards: 2, Sim: testSimCfg(core.NameMutatedPartition)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(replayOf(rt)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(replayOf(rt)); err == nil {
		t.Fatal("second Run succeeded")
	}
}

// TestEngineSurfacesReplayError proves a failing trace stream aborts
// both engine modes cleanly (no goroutine deadlock, error surfaced).
func TestEngineSurfacesReplayError(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		eng, err := shard.New(shard.Config{Shards: 2, Parallel: parallel, Sim: testSimCfg(core.NameMutatedPartition)})
		if err != nil {
			t.Fatal(err)
		}
		// A write to a never-created OID fails inside the demux router.
		_, err = eng.Run(func(s trace.Sink) error {
			return s.Emit(trace.Event{Kind: trace.KindRead, OID: 7})
		})
		if err == nil || !strings.Contains(err.Error(), "before creation") {
			t.Errorf("parallel=%v: error %v, want routing failure", parallel, err)
		}
	}
}
