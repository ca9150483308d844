package sim

import (
	"fmt"
	"runtime"

	"odbgc/internal/stats"
	"odbgc/internal/workload"
)

// RunWorkload streams a freshly generated workload into a fresh simulator
// and returns both sides' results.
func RunWorkload(simCfg Config, wlCfg workload.Config) (Result, workload.Stats, error) {
	s, err := New(simCfg)
	if err != nil {
		return Result{}, workload.Stats{}, err
	}
	g, err := workload.New(wlCfg)
	if err != nil {
		return Result{}, workload.Stats{}, err
	}
	if simCfg.WarmStart {
		g.SetBuildCompleteHook(s.ResetMeasurement)
	}
	wlStats, err := g.Run(s)
	if err != nil {
		return Result{}, wlStats, fmt.Errorf("sim: workload replay failed: %w", err)
	}
	return s.Finish(), wlStats, nil
}

// RunSource streams any trace source (e.g. the OO1-style workload) into a
// fresh simulator. A source has no build/churn boundary, so it rejects
// WarmStart.
func RunSource(simCfg Config, src workload.Source) (Result, workload.Stats, error) {
	if simCfg.WarmStart {
		return Result{}, workload.Stats{}, fmt.Errorf("sim: WarmStart does not apply to a trace source (it has no build/churn boundary)")
	}
	s, err := New(simCfg)
	if err != nil {
		return Result{}, workload.Stats{}, err
	}
	st, err := src.Run(s)
	if err != nil {
		return Result{}, st, fmt.Errorf("sim: source replay failed: %w", err)
	}
	return s.Finish(), st, nil
}

// RunRecorded replays a recorded workload trace into a fresh simulator.
// The result is bit-identical to RunWorkload with the trace's generating
// configuration: the recorded stream is the same event sequence a live
// generator emits, and warm starts reset measurement at the identical
// build/churn boundary.
func RunRecorded(simCfg Config, rt *workload.RecordedTrace) (Result, error) {
	s, err := New(simCfg)
	if err != nil {
		return Result{}, err
	}
	var hook func()
	if simCfg.WarmStart {
		hook = s.ResetMeasurement
	}
	if err := rt.Replay(s, hook); err != nil {
		return Result{}, fmt.Errorf("sim: trace replay failed: %w", err)
	}
	return s.Finish(), nil
}

// RunSeeds repeats RunWorkload n times with derived seeds (workload seed
// base+i, simulator seed base+1000+i), the way the paper averages each
// configuration over 10 differently seeded runs. Runs are drained by a
// Scheduler worker pool (each simulation is fully independent and
// deterministic given its seeds); results are returned in seed order. A
// custom policy supplied through Config.PolicyFactory is built once per
// run and parallelizes like the built-ins.
func RunSeeds(simCfg Config, wlCfg workload.Config, n int) ([]Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: RunSeeds needs a positive run count, got %d", n)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	// No trace cache: each derived seed's trace is replayed exactly once.
	s := NewScheduler(workers, nil)
	defer s.Close()
	results := make([]Result, n)
	s.SubmitSeeds(simCfg.Policy, simCfg, wlCfg, n, results)
	if err := s.Wait(); err != nil {
		return nil, err
	}
	return results, nil
}

// Aggregate summarizes a set of same-configuration runs, one Summary per
// reported metric.
type Aggregate struct {
	Policy string
	N      int

	AppIOs, GCIOs, TotalIOs stats.Summary

	MaxOccupiedKB stats.Summary
	NumPartitions stats.Summary

	Collections       stats.Summary
	ReclaimedKB       stats.Summary
	FractionReclaimed stats.Summary // percent
	EfficiencyKBPerIO stats.Summary
	ActualGarbageKB   stats.Summary
}

// Aggregates computes an Aggregate from per-seed results. All results must
// share a policy.
func Aggregates(results []Result) Aggregate {
	agg := Aggregate{N: len(results)}
	if len(results) == 0 {
		return agg
	}
	agg.Policy = results[0].Policy
	collect := func(f func(Result) float64) stats.Summary {
		xs := make([]float64, len(results))
		for i, r := range results {
			if r.Policy != agg.Policy {
				panic(fmt.Sprintf("sim: Aggregates mixes policies %q and %q", agg.Policy, r.Policy))
			}
			xs[i] = f(r)
		}
		return stats.Summarize(xs)
	}
	agg.AppIOs = collect(func(r Result) float64 { return float64(r.AppIOs) })
	agg.GCIOs = collect(func(r Result) float64 { return float64(r.GCIOs) })
	agg.TotalIOs = collect(func(r Result) float64 { return float64(r.TotalIOs) })
	agg.MaxOccupiedKB = collect(func(r Result) float64 { return float64(r.MaxOccupiedBytes) / 1024 })
	agg.NumPartitions = collect(func(r Result) float64 { return float64(r.NumPartitions) })
	agg.Collections = collect(func(r Result) float64 { return float64(r.Collections) })
	agg.ReclaimedKB = collect(func(r Result) float64 { return float64(r.ReclaimedBytes) / 1024 })
	agg.FractionReclaimed = collect(func(r Result) float64 { return 100 * r.FractionReclaimed() })
	agg.EfficiencyKBPerIO = collect(Result.EfficiencyKBPerIO)
	agg.ActualGarbageKB = collect(func(r Result) float64 { return float64(r.ActualGarbageBytes) / 1024 })
	return agg
}
