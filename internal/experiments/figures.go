package experiments

import (
	"fmt"

	"odbgc/internal/core"
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

// Figures45 holds the per-policy time series of the figure run.
type Figures45 struct {
	Policies []string
	// Garbage is Figure 4 (unreclaimed garbage KB over application
	// events); DBSize is Figure 5 (occupied KB over application events).
	Garbage *stats.Series
	DBSize  *stats.Series
}

// RunFigures4And5 runs the figure workload once per policy (a single seed,
// as in the paper) and assembles one multi-column series per figure.
func RunFigures4And5(progress Progress) (*Figures45, error) {
	return runFigures45(FigureWorkload(), FigureSim, progress)
}

// figures45Job holds the per-policy result slots of an in-flight figure
// run; finish assembles the series once the scheduler has drained.
type figures45Job struct {
	policies []string
	results  []sim.Result
}

// submitFigures45 flattens the figure run (one job per policy, all
// replaying one shared trace) into scheduler jobs.
func submitFigures45(s *sim.Scheduler, wl workload.Config, mkSim func(string) sim.Config) *figures45Job {
	j := &figures45Job{
		policies: core.PaperNames(),
		results:  make([]sim.Result, len(core.PaperNames())),
	}
	for i, policy := range j.policies {
		s.Submit(sim.Job{
			Label: "fig45/" + policy,
			Sim:   mkSim(policy), WL: wl, Out: &j.results[i],
		})
	}
	return j
}

// finish assembles the two figure series from the completed results.
func (j *figures45Job) finish() (*Figures45, error) {
	out := &Figures45{Policies: j.policies}
	var n int
	for i, policy := range j.policies {
		series := j.results[i].Series
		if series == nil || series.Len() == 0 {
			return nil, fmt.Errorf("experiments: figures: %s produced no samples", policy)
		}
		if n == 0 || series.Len() < n {
			n = series.Len()
		}
	}

	// Every policy replays the identical trace, so the sample grids agree;
	// truncate to the shortest in case of off-by-one at the trace tail.
	out.Garbage = stats.NewSeries("events", j.policies...)
	out.DBSize = stats.NewSeries("events", j.policies...)
	base := j.results[0].Series
	for i := 0; i < n; i++ {
		garbage := make([]float64, len(j.policies))
		size := make([]float64, len(j.policies))
		for p := range j.policies {
			s := j.results[p].Series
			garbage[p] = s.Y[2][i] // unreclaimed_garbage_kb
			size[p] = s.Y[0][i]    // occupied_kb
		}
		out.Garbage.Add(base.X[i], garbage...)
		out.DBSize.Add(base.X[i], size...)
	}
	return out, nil
}

// runFigures45 is the scale-parameterized core of RunFigures4And5.
func runFigures45(wl workload.Config, mkSim func(string) sim.Config, progress Progress) (*Figures45, error) {
	progress = progress.Sync()
	s := newScheduler(0, workload.NewTraceCache(workload.DefaultTraceCacheBytes), progress)
	defer s.Close()
	j := submitFigures45(s, wl, mkSim)
	if err := s.Wait(); err != nil {
		return nil, fmt.Errorf("experiments: figures: %w", err)
	}
	return j.finish()
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

// Figure6Result holds storage-required curves per policy.
type Figure6Result struct {
	Points   []Figure6Point
	Policies []string
	// StorageMB[policy][i] is the mean maximum storage (MB) at Points[i].
	StorageMB map[string][]float64
}

// RunFigure6 sweeps the database size for every policy, averaging each
// point over the given seeds.
func RunFigure6(seeds int, progress Progress) (*Figure6Result, error) {
	return runFigure6(Figure6Points, Figure6Workload, Figure6Sim, seeds, progress)
}

// figure6Job holds the in-flight sweep's result slots, indexed
// [point][policy][seed]; finish aggregates them.
type figure6Job struct {
	points   []Figure6Point
	policies []string
	results  [][][]sim.Result
}

// submitFigure6 flattens the scalability sweep into scheduler jobs,
// seed-major within each point so the sweep's large traces are consumed
// by all policies while still resident in the cache.
func submitFigure6(s *sim.Scheduler, points []Figure6Point, mkWL func(Figure6Point) workload.Config,
	mkSim func(string, Figure6Point) sim.Config, seeds int) *figure6Job {
	j := &figure6Job{points: points, policies: core.PaperNames()}
	j.results = make([][][]sim.Result, len(points))
	for pi, p := range points {
		j.results[pi] = make([][]sim.Result, len(j.policies))
		for qi := range j.policies {
			j.results[pi][qi] = make([]sim.Result, seeds)
		}
		wlBase := mkWL(p)
		for i := 0; i < seeds; i++ {
			for qi, policy := range j.policies {
				label := fmt.Sprintf("fig6/%dMB/%s", p.MaxAllocMB, policy)
				s.Submit(sim.SeedJob(label, mkSim(policy, p), wlBase, i, &j.results[pi][qi][i]))
			}
		}
	}
	return j
}

// finish aggregates the completed sweep into per-policy storage curves.
func (j *figure6Job) finish() *Figure6Result {
	res := &Figure6Result{
		Points:    j.points,
		Policies:  j.policies,
		StorageMB: make(map[string][]float64),
	}
	for pi := range j.points {
		for qi, policy := range j.policies {
			agg := sim.Aggregates(j.results[pi][qi])
			res.StorageMB[policy] = append(res.StorageMB[policy], agg.MaxOccupiedKB.Mean/1024)
		}
	}
	return res
}

// runFigure6 is the scale-parameterized core of RunFigure6.
func runFigure6(points []Figure6Point, mkWL func(Figure6Point) workload.Config,
	mkSim func(string, Figure6Point) sim.Config, seeds int, progress Progress) (*Figure6Result, error) {
	progress = progress.Sync()
	s := newScheduler(0, workload.NewTraceCache(workload.DefaultTraceCacheBytes), progress)
	defer s.Close()
	j := submitFigure6(s, points, mkWL, mkSim, seeds)
	if err := s.Wait(); err != nil {
		return nil, fmt.Errorf("experiments: figure 6: %w", err)
	}
	return j.finish(), nil
}

// Table renders the sweep as a table (policies × sizes, cells in MB).
func (r *Figure6Result) Table() *stats.Table {
	headers := []string{"Selection Policy"}
	for _, p := range r.Points {
		headers = append(headers, fmt.Sprintf("%d MB", p.MaxAllocMB))
	}
	t := stats.NewTable("Figure 6: Storage Required (MB) vs Maximum Allocated Storage", headers...)
	for _, policy := range r.Policies {
		row := []string{policy}
		for _, v := range r.StorageMB[policy] {
			row = append(row, fmt.Sprintf("%.1f", v))
		}
		t.AddRow(row...)
	}
	return t
}

// Series renders the sweep as a plottable series (x = allocated MB).
func (r *Figure6Result) Series() *stats.Series {
	s := stats.NewSeries("max_allocated_mb", r.Policies...)
	for i, p := range r.Points {
		ys := make([]float64, len(r.Policies))
		for j, policy := range r.Policies {
			ys[j] = r.StorageMB[policy][i]
		}
		s.Add(int64(p.MaxAllocMB), ys...)
	}
	return s
}
