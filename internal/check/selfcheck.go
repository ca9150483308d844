package check

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"

	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/shard"
	"odbgc/internal/sim"
	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

// Options configures SelfCheck.
type Options struct {
	// Short trims the run for CI smoke use: one seed instead of two and a
	// sparser audit cadence. The catalog and every differential path still
	// execute.
	Short bool
	// Logf receives one progress line per phase; nil discards them.
	Logf func(format string, args ...any)
}

// SelfCheck replays a deliberately small configuration through every
// policy with the full invariant catalog auditing each run, then drives
// the same workload through independent slow and fast paths that must
// agree bit-for-bit:
//
//   - audited vs unaudited (auditing must not perturb results);
//   - streamed chunked-file replay vs the in-memory replay;
//   - recorded-trace replay vs a live generator run;
//   - serial loop vs the parallel scheduler with a shared trace cache;
//   - trigger parity across all policies (TriggerParity);
//   - the sharded engine's goroutine-per-shard mode vs its serial mode
//     (bit-identical per-shard results, per-partition garbage, and
//     exchange counters), and its single-shard mode vs the plain
//     simulator.
//
// The first divergence or invariant violation is reported with the
// specific field or structure that came apart. A nil return means every
// path agreed and every audit passed.
func SelfCheck(opts Options) error {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	seeds := 2
	if opts.Short {
		seeds = 1
	}
	everyEvents := int64(1 << 12)
	if opts.Short {
		everyEvents = 1 << 14
	}

	wlBase := smallWorkload()
	simBase := smallSim()
	cache := workload.NewTraceCache(0)

	// Phase 1: audited catalog under every policy, and audit neutrality.
	logf("selfcheck: phase 1: invariant catalog, %d policies x %d seeds", len(core.Names()), seeds)
	byPolicy := make(map[string][]sim.Result)
	for i := 0; i < seeds; i++ {
		wl := wlBase
		wl.Seed += int64(i)
		rt, err := cache.Get(wl)
		if err != nil {
			return fmt.Errorf("selfcheck: recording workload seed %d: %w", wl.Seed, err)
		}
		for _, policy := range core.Names() {
			cfg := simBase
			cfg.Policy = policy
			cfg.Seed = simBase.Seed + 1000 + int64(i)
			audited := cfg
			audited.Audit = Audited(everyEvents)
			resAudited, err := sim.RunRecorded(audited, rt)
			if err != nil {
				return fmt.Errorf("selfcheck: audited run (policy %s, seed %d): %w", policy, wl.Seed, err)
			}
			resPlain, err := sim.RunRecorded(cfg, rt)
			if err != nil {
				return fmt.Errorf("selfcheck: plain run (policy %s, seed %d): %w", policy, wl.Seed, err)
			}
			if err := DiffResults("audited run", "unaudited run", resAudited, resPlain); err != nil {
				return fmt.Errorf("selfcheck: auditing perturbed policy %s, seed %d: %w", policy, wl.Seed, err)
			}
			byPolicy[policy] = append(byPolicy[policy], resPlain)
		}
	}
	if err := TriggerParity(byPolicy); err != nil {
		return fmt.Errorf("selfcheck: %w", err)
	}

	// Phase 2: differential replay paths under one representative policy.
	policy := core.NameMutatedPartition
	logf("selfcheck: phase 2: differential replay paths, policy %s", policy)
	for i := 0; i < seeds; i++ {
		wl := wlBase
		wl.Seed += int64(i)
		cfg := simBase
		cfg.Policy = policy
		cfg.Seed = simBase.Seed + 1000 + int64(i)
		rt, err := cache.Get(wl)
		if err != nil {
			return fmt.Errorf("selfcheck: recording workload seed %d: %w", wl.Seed, err)
		}
		ref := byPolicy[policy][i]

		// Streamed chunked-file replay vs the in-memory replay.
		// Small chunks force many boundaries through the prefetch
		// pipeline; the build/churn boundary carries over from the
		// in-memory recording since the file does not store it.
		tmpDir, err := os.MkdirTemp("", "odbgc-selfcheck")
		if err != nil {
			return fmt.Errorf("selfcheck: temp dir for streamed trace: %w", err)
		}
		streamPath := filepath.Join(tmpDir, fmt.Sprintf("seed%d.odbgcck", wl.Seed))
		resStreamed, serr := func() (sim.Result, error) {
			if err := rt.WriteChunked(streamPath, 64<<10); err != nil {
				return sim.Result{}, fmt.Errorf("writing chunked trace: %w", err)
			}
			streamed, err := workload.OpenStreamed(streamPath)
			if err != nil {
				return sim.Result{}, fmt.Errorf("opening chunked trace: %w", err)
			}
			streamed.Config = rt.Config
			streamed.Stats = rt.Stats
			streamed.BuildEvents = rt.BuildEvents
			return sim.RunRecorded(cfg, streamed)
		}()
		os.RemoveAll(tmpDir)
		if serr != nil {
			return fmt.Errorf("selfcheck: streamed replay (seed %d): %w", wl.Seed, serr)
		}
		if err := DiffResults("in-memory replay", "streamed chunked replay", ref, resStreamed); err != nil {
			return fmt.Errorf("selfcheck: seed %d: %w", wl.Seed, err)
		}

		// Recorded trace vs running the generator live.
		resFresh, _, err := sim.RunWorkload(cfg, wl)
		if err != nil {
			return fmt.Errorf("selfcheck: live generator run (seed %d): %w", wl.Seed, err)
		}
		if err := DiffResults("recorded replay", "live generator", ref, resFresh); err != nil {
			return fmt.Errorf("selfcheck: seed %d: %w", wl.Seed, err)
		}
	}

	// Phase 3: serial loop vs the parallel scheduler over all policies.
	logf("selfcheck: phase 3: serial vs parallel scheduler")
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	sched := sim.NewScheduler(workers, workload.NewTraceCache(0))
	parallel := make(map[string][]sim.Result)
	for _, policy := range core.Names() {
		cfg := simBase
		cfg.Policy = policy
		out := make([]sim.Result, seeds)
		parallel[policy] = out
		sched.SubmitSeeds(policy, cfg, wlBase, seeds, out)
	}
	err := sched.Wait()
	sched.Close()
	if err != nil {
		return fmt.Errorf("selfcheck: parallel schedule failed: %w", err)
	}
	for _, policy := range core.Names() {
		for i := 0; i < seeds; i++ {
			if err := DiffResults("serial run", "scheduled run", byPolicy[policy][i], parallel[policy][i]); err != nil {
				return fmt.Errorf("selfcheck: policy %s, seed %d: %w", policy, i, err)
			}
		}
	}
	// Phase 4: the sharded engine. A cross-tree workload gives the shards
	// real remembered-set traffic to exchange; every policy must come out
	// bit-identical between the goroutine-per-shard and serial modes, and
	// the single-shard engine must reproduce the plain simulator.
	logf("selfcheck: phase 4: sharded engine, %d policies x %d seeds", len(core.Names()), seeds)
	wlShard := wlBase
	wlShard.CrossTreeFraction = 0.25
	shardBase := simBase
	shardBase.SampleEvery = 0 // the sharded engine rejects sampling
	for i := 0; i < seeds; i++ {
		wl := wlShard
		wl.Seed += int64(i)
		rt, err := cache.Get(wl)
		if err != nil {
			return fmt.Errorf("selfcheck: recording cross-tree workload seed %d: %w", wl.Seed, err)
		}
		if rt.Stats.CrossTreeEdges == 0 {
			return fmt.Errorf("selfcheck: cross-tree workload seed %d produced no cross-tree edges", wl.Seed)
		}
		replay := func(s trace.Sink) error { return rt.Replay(s, nil) }
		for _, policy := range core.Names() {
			cfg := shardBase
			cfg.Policy = policy
			cfg.Seed = simBase.Seed + 1000 + int64(i)
			scfg := shard.Config{Shards: 4, EpochEvents: 1 << 12, Sim: cfg}
			serial, err := runShardedOnce(scfg, replay)
			if err != nil {
				return fmt.Errorf("selfcheck: serial sharded run (policy %s, seed %d): %w", policy, wl.Seed, err)
			}
			scfg.Parallel = true
			parallel, err := runShardedOnce(scfg, replay)
			if err != nil {
				return fmt.Errorf("selfcheck: parallel sharded run (policy %s, seed %d): %w", policy, wl.Seed, err)
			}
			if err := DiffShardRuns("serial sharded engine", "parallel sharded engine", serial, parallel); err != nil {
				return fmt.Errorf("selfcheck: policy %s, seed %d: %w", policy, wl.Seed, err)
			}
			if serial.ForeignWrites == 0 || serial.MessagesSent == 0 {
				return fmt.Errorf("selfcheck: policy %s, seed %d: sharded run exchanged no cross-shard traffic (foreign writes %d, messages %d)",
					policy, wl.Seed, serial.ForeignWrites, serial.MessagesSent)
			}
		}

		// Single shard vs the plain simulator: the demux must be a pure
		// pass-through.
		cfg := shardBase
		cfg.Policy = core.NameMutatedPartition
		cfg.Seed = simBase.Seed + 1000 + int64(i)
		single, err := runShardedOnce(shard.Config{Shards: 1, EpochEvents: 1 << 12, Sim: cfg}, replay)
		if err != nil {
			return fmt.Errorf("selfcheck: single-shard run (seed %d): %w", wl.Seed, err)
		}
		plain, err := sim.RunRecorded(cfg, rt)
		if err != nil {
			return fmt.Errorf("selfcheck: plain run for single-shard leg (seed %d): %w", wl.Seed, err)
		}
		if err := DiffResults("single-shard engine", "plain simulator", single.PerShard[0].Result, plain); err != nil {
			return fmt.Errorf("selfcheck: seed %d: %w", wl.Seed, err)
		}
		if single.ForeignWrites != 0 || single.DeltasExchanged != 0 {
			return fmt.Errorf("selfcheck: seed %d: single-shard run reports cross-shard traffic (%d foreign writes, %d deltas)",
				wl.Seed, single.ForeignWrites, single.DeltasExchanged)
		}
	}

	logf("selfcheck: all paths agree, all audits passed")
	return nil
}

// runShardedOnce builds a fresh engine for cfg and replays one trace
// through it (engines are single-use).
func runShardedOnce(cfg shard.Config, replay func(trace.Sink) error) (shard.Result, error) {
	eng, err := shard.New(cfg)
	if err != nil {
		return shard.Result{}, err
	}
	return eng.Run(replay)
}

// DiffShardRuns compares two sharded runs of the same configuration,
// ignoring only the wall-clock counters and the Parallel echo (the
// fields that legitimately differ between engine modes). Everything else
// — per-shard simulator results, per-partition garbage, exchange
// counters, and the aggregates — must be bit-identical.
func DiffShardRuns(labelA, labelB string, a, b shard.Result) error {
	if len(a.PerShard) != len(b.PerShard) {
		return fmt.Errorf("%s ran %d shards, %s ran %d", labelA, len(a.PerShard), labelB, len(b.PerShard))
	}
	for i := range a.PerShard {
		sa, sb := a.PerShard[i], b.PerShard[i]
		if err := DiffResults(labelA, labelB, sa.Result, sb.Result); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		sa.BusyNs, sa.Result = 0, sim.Result{}
		sb.BusyNs, sb.Result = 0, sim.Result{}
		if !reflect.DeepEqual(sa, sb) {
			return fmt.Errorf("shard %d counters diverge between %s and %s:\n  %+v\n  %+v", i, labelA, labelB, sa, sb)
		}
	}
	a.Parallel, a.BusyNsTotal, a.BusyNsMax, a.PerShard = false, 0, 0, nil
	b.Parallel, b.BusyNsTotal, b.BusyNsMax, b.PerShard = false, 0, 0, nil
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("aggregates diverge between %s and %s:\n  %+v\n  %+v", labelA, labelB, a, b)
	}
	return nil
}

// smallWorkload is the self-check workload: the default shape scaled to
// roughly 350 KB live / 1 MB allocated, small enough that the O(heap)
// catalog after every collection stays fast.
func smallWorkload() workload.Config {
	cfg := workload.DefaultConfig()
	cfg.TargetLiveBytes = 350_000
	cfg.TotalAllocBytes = 1_000_000
	cfg.MinDeletions = 400
	cfg.MeanTreeNodes = 80
	cfg.LargeEvery = 500
	cfg.LargeObjectSize = 16384
	return cfg
}

// smallSim is the matching simulator geometry: 8-page partitions so the
// small database still spans enough partitions to exercise selection,
// plus sampling so the differential diffs cover Result.Samples too.
func smallSim() sim.Config {
	return sim.Config{
		Seed:              1,
		Heap:              heap.Config{PageSize: 4096, PartitionPages: 8, ReserveEmpty: true},
		TriggerOverwrites: 60,
		SampleEvery:       2000,
	}
}
