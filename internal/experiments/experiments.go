// Package experiments reproduces the paper's evaluation: Tables 2–4 (one
// shared set of base runs), Table 5 (connectivity sweep), Figures 4 and 5
// (time-varying behavior of one larger run), and Figure 6 (scalability
// sweep from 4 to 40 MB). Each experiment renders the same rows or series
// the paper reports; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"sync"

	"odbgc/internal/core"
	"odbgc/internal/sim"
	"odbgc/internal/stats"
	"odbgc/internal/workload"
)

// Progress receives human-readable progress lines; nil disables them.
// Callbacks handed to parallel runners must be wrapped with Sync first —
// RunSuite does so on entry.
type Progress func(format string, args ...any)

func (p Progress) logf(format string, args ...any) {
	if p != nil {
		p(format, args...)
	}
}

// Sync returns a goroutine-safe Progress: concurrent calls are serialized
// through a mutex so lines emitted by parallel jobs cannot interleave
// mid-write. A nil Progress stays nil; Sync of an already-synced Progress
// is harmless.
func (p Progress) Sync() Progress {
	if p == nil {
		return nil
	}
	var mu sync.Mutex
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		p(format, args...)
	}
}

// newScheduler builds a scheduler whose per-job completion lines are
// tagged with the job's label, e.g. "[37/60] tables/Random/seed 3".
// progress must already be synced.
func newScheduler(workers int, cache *workload.TraceCache, progress Progress) *sim.Scheduler {
	s := sim.NewScheduler(workers, cache)
	if progress != nil {
		s.SetNotify(func(done, total int64, label string) {
			progress("[%d/%d] %s", done, total, label)
		})
	}
	return s
}

// BaseWorkload returns the workload of Tables 2–4: ≈5 MB live, ≈11.5 MB
// allocated, connectivity ≈ 1.083.
func BaseWorkload() workload.Config { return workload.DefaultConfig() }

// BaseSim returns the simulator config of Tables 2–4 for one policy:
// 48-page partitions and buffer, collection every 280 overwrites.
func BaseSim(policy string) sim.Config { return sim.DefaultConfig(policy) }

// BaseRun holds the per-seed results of the base configuration for every
// paper policy, aligned so Results[p][i] used the same workload seed for
// every p.
type BaseRun struct {
	Seeds    int
	Policies []string
	Results  map[string][]sim.Result
}

// RunBase executes the base configuration for all six paper policies over
// the given number of seeds (the paper uses 10): RunSuite with only the
// Tables family.
func RunBase(seeds int, progress Progress) (*BaseRun, error) {
	res, err := RunSuite(SuiteOptions{Seeds: seeds, Tables: true}, progress)
	if err != nil {
		return nil, err
	}
	return res.Base, nil
}

// submitPolicies flattens policies × seeds into scheduler jobs, seed-major
// so each workload seed's cached trace is consumed by all six policies
// before the next seed's trace is needed (LRU-friendly). Results land in
// preallocated per-policy slices; read them only after the scheduler's
// Wait succeeds.
func submitPolicies(s *sim.Scheduler, tag string, wl workload.Config, mkSim func(string) sim.Config, seeds int) *BaseRun {
	run := &BaseRun{
		Seeds:    seeds,
		Policies: core.PaperNames(),
		Results:  make(map[string][]sim.Result, len(core.PaperNames())),
	}
	for _, policy := range run.Policies {
		run.Results[policy] = make([]sim.Result, seeds)
	}
	for i := 0; i < seeds; i++ {
		for _, policy := range run.Policies {
			s.Submit(sim.SeedJob(tag+"/"+policy, mkSim(policy), wl, i, &run.Results[policy][i]))
		}
	}
	return run
}

// relative computes per-seed ratios of metric(policy) over
// metric(MostGarbage), pairing runs by seed the way the paper's small
// "Relative" standard deviations imply.
func (b *BaseRun) relative(policy string, metric func(sim.Result) float64) stats.Summary {
	base := b.Results[core.NameMostGarbage]
	rows := b.Results[policy]
	ratios := make([]float64, 0, len(rows))
	for i := range rows {
		if m := metric(base[i]); m != 0 {
			ratios = append(ratios, metric(rows[i])/m)
		}
	}
	return stats.Summarize(ratios)
}

// Table2 renders throughput as page I/O operations (paper Table 2).
func (b *BaseRun) Table2() *stats.Table {
	t := stats.NewTable(
		"Table 2: Throughput as Number of Page I/O Operations (Relative is MostGarbage=1)",
		"Selection Policy", "App I/Os", "±", "Collector I/Os", "±", "Total I/Os", "Relative", "±")
	for _, policy := range b.Policies {
		agg := sim.Aggregates(b.Results[policy])
		rel := b.relative(policy, func(r sim.Result) float64 { return float64(r.TotalIOs) })
		t.AddRow(policy,
			fmt.Sprintf("%.0f", agg.AppIOs.Mean), fmt.Sprintf("%.0f", agg.AppIOs.StdDev),
			fmt.Sprintf("%.0f", agg.GCIOs.Mean), fmt.Sprintf("%.0f", agg.GCIOs.StdDev),
			fmt.Sprintf("%.0f", agg.TotalIOs.Mean),
			stats.FormatFloat(rel.Mean, 3), stats.FormatFloat(rel.StdDev, 3))
	}
	return t
}

// Table3 renders maximum storage usage (paper Table 3).
func (b *BaseRun) Table3() *stats.Table {
	t := stats.NewTable(
		"Table 3: Maximum Storage Space Usage (Relative is MostGarbage=1)",
		"Selection Policy", "Max Storage KB", "±", "Relative", "# Partitions", "±")
	for _, policy := range b.Policies {
		agg := sim.Aggregates(b.Results[policy])
		rel := b.relative(policy, func(r sim.Result) float64 { return float64(r.MaxOccupiedBytes) })
		t.AddRow(policy,
			fmt.Sprintf("%.0f", agg.MaxOccupiedKB.Mean), fmt.Sprintf("%.0f", agg.MaxOccupiedKB.StdDev),
			stats.FormatFloat(rel.Mean, 3),
			fmt.Sprintf("%.1f", agg.NumPartitions.Mean), fmt.Sprintf("%.2f", agg.NumPartitions.StdDev))
	}
	return t
}

// Table4 renders collector effectiveness and efficiency (paper Table 4),
// including the paper's "Actual Garbage" reference row.
func (b *BaseRun) Table4() *stats.Table {
	t := stats.NewTable(
		"Table 4: Collector Effectiveness and Efficiency (Relative is MostGarbage=1)",
		"Selection Policy", "Reclaimed KB", "±", "Fraction %", "±", "KB per I/O", "Rel Efficiency")
	baseEff := sim.Aggregates(b.Results[core.NameMostGarbage]).EfficiencyKBPerIO.Mean
	for _, policy := range b.Policies {
		agg := sim.Aggregates(b.Results[policy])
		// Ratio yields NaN over a zero base (e.g. NoCollection-only runs),
		// which FormatFloat renders as "n/a" rather than a spurious 0.00.
		relEff := agg.EfficiencyKBPerIO.Ratio(baseEff)
		t.AddRow(policy,
			fmt.Sprintf("%.0f", agg.ReclaimedKB.Mean), fmt.Sprintf("%.0f", agg.ReclaimedKB.StdDev),
			fmt.Sprintf("%.2f", agg.FractionReclaimed.Mean), fmt.Sprintf("%.2f", agg.FractionReclaimed.StdDev),
			fmt.Sprintf("%.2f", agg.EfficiencyKBPerIO.Mean),
			stats.FormatFloat(relEff, 2))
	}
	garbage := sim.Aggregates(b.Results[core.NameMostGarbage]).ActualGarbageKB
	t.AddRow("Actual Garbage",
		fmt.Sprintf("%.0f", garbage.Mean), fmt.Sprintf("%.0f", garbage.StdDev),
		"100.00", "", "", "")
	return t
}
