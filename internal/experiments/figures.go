package experiments

import (
	"fmt"

	"odbgc/internal/core"
	"odbgc/internal/record"
	"odbgc/internal/sim"
	"odbgc/internal/stats"
	"odbgc/internal/workload"
)

// FigureWorkload returns the larger single-seed workload behind Figures 4
// and 5: a database that grows to roughly 20 MB under NoCollection.
func FigureWorkload() workload.Config {
	wl := workload.DefaultConfig()
	wl.TargetLiveBytes = 8_000_000
	wl.TotalAllocBytes = 20_000_000
	wl.MinDeletions = 8000
	return wl
}

// FigureSim returns the simulator config for Figures 4 and 5, with
// time-series sampling enabled.
func FigureSim(policy string) sim.Config {
	cfg := sim.DefaultConfig(policy)
	cfg.TriggerOverwrites = 300
	cfg.SampleEvery = 25_000
	return cfg
}

// Figures45 holds the per-policy time series of the figure run, one
// column per policy in core.PaperNames order.
type Figures45 struct {
	// Garbage is Figure 4 (unreclaimed garbage KB over application
	// events); DBSize is Figure 5 (occupied KB over application events).
	Garbage *stats.Series
	DBSize  *stats.Series
}

// submitFigures45 flattens the figure run (one job per policy, all
// replaying one shared trace) into scheduler jobs. Each job's result
// lands in its run's Result; read the runs only after the scheduler's
// Wait succeeds.
func submitFigures45(s *sim.Scheduler, wl workload.Config, mkSim func(string) sim.Config) []record.FigureRun {
	policies := core.PaperNames()
	runs := make([]record.FigureRun, len(policies))
	for i, policy := range policies {
		runs[i].Policy = policy
		s.Submit(sim.Job{
			Label: "fig45/" + policy,
			Sim:   mkSim(policy), WL: wl, Out: &runs[i].Result,
		})
	}
	return runs
}

// Figure6Point is one database size in the scalability sweep.
type Figure6Point struct {
	// MaxAllocMB is the cumulative allocation target; PartitionPages
	// scales with it as in the paper (24–100 pages of 8 KB).
	MaxAllocMB     int
	PartitionPages int
}

// Figure6Points are the swept sizes: 4–40 MB with partitions of 24–100
// pages, mirroring the paper's Figure 6.
var Figure6Points = []Figure6Point{
	{4, 24},
	{8, 32},
	{12, 48},
	{20, 64},
	{40, 100},
}

// Figure6Workload returns the workload for one sweep point: live data is
// 40% of the allocation target, matching the base configuration's
// proportions.
func Figure6Workload(p Figure6Point) workload.Config {
	wl := workload.DefaultConfig()
	wl.TotalAllocBytes = int64(p.MaxAllocMB) << 20
	wl.TargetLiveBytes = wl.TotalAllocBytes * 2 / 5
	wl.MinDeletions = wl.TotalAllocBytes / 2300 // keeps deletions proportional
	return wl
}

// Figure6Sim returns the simulator config for one sweep point. The
// overwrite trigger scales so every run performs a comparable number of
// collections relative to its churn (the paper used 150–300 overwrites
// for 20–30 collections per run).
func Figure6Sim(policy string, p Figure6Point) sim.Config {
	cfg := sim.DefaultConfig(policy)
	cfg.Heap.PartitionPages = p.PartitionPages
	wl := Figure6Workload(p)
	trigger := wl.MinDeletions / 25
	if trigger < 150 {
		trigger = 150
	}
	if trigger > 800 {
		trigger = 800
	}
	cfg.TriggerOverwrites = trigger
	return cfg
}

// submitFigure6 flattens the scalability sweep into scheduler jobs,
// seed-major within each point so the sweep's large traces are consumed
// by all policies while still resident in the cache. Runs are returned
// in submission order, each job's result landing in its run's Result;
// read them only after the scheduler's Wait succeeds.
func submitFigure6(s *sim.Scheduler, points []Figure6Point, mkWL func(Figure6Point) workload.Config,
	mkSim func(string, Figure6Point) sim.Config, seeds int) []record.FigureRun {
	policies := core.PaperNames()
	runs := make([]record.FigureRun, len(points)*seeds*len(policies))
	k := 0
	for _, p := range points {
		wlBase := mkWL(p)
		for i := 0; i < seeds; i++ {
			for _, policy := range policies {
				runs[k] = record.FigureRun{Policy: policy, Point: int64(p.MaxAllocMB)}
				label := fmt.Sprintf("fig6/%dMB/%s", p.MaxAllocMB, policy)
				s.Submit(sim.SeedJob(label, mkSim(policy, p), wlBase, i, &runs[k].Result))
				k++
			}
		}
	}
	return runs
}

// Figure6Table renders the Figure 6 series (record.Figure6) as a table:
// policies × sizes, cells in MB.
func Figure6Table(storage *stats.Series) *stats.Table {
	headers := []string{"Selection Policy"}
	for _, mb := range storage.X {
		headers = append(headers, fmt.Sprintf("%d MB", mb))
	}
	t := stats.NewTable("Figure 6: Storage Required (MB) vs Maximum Allocated Storage", headers...)
	for q, policy := range storage.Names {
		row := []string{policy}
		for _, v := range storage.Y[q] {
			row = append(row, fmt.Sprintf("%.1f", v))
		}
		t.AddRow(row...)
	}
	return t
}
