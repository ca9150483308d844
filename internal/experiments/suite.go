package experiments

import (
	"fmt"

	"odbgc/internal/record"
	"odbgc/internal/sim"
	"odbgc/internal/stats"
	"odbgc/internal/workload"
)

// SuiteOptions selects which experiment families run and how the shared
// scheduler is provisioned.
type SuiteOptions struct {
	// Seeds is the number of workload seeds for the seed-averaged
	// families (tables, table 5, figure 6, sensitivity, ablations).
	Seeds int
	// Workers is the scheduler's worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// TraceCacheBytes bounds the shared trace cache: 0 uses
	// workload.DefaultTraceCacheBytes, a negative value disables the
	// cache entirely (every job regenerates its workload).
	TraceCacheBytes int64
	// Record, when non-nil, receives one structured run recording per
	// job (numbered in submission order; see record.Recorder). The
	// caller persists it after the suite returns.
	Record *record.Recorder

	Tables      bool
	Table5      bool
	Figures45   bool
	Figure6     bool
	Sensitivity bool
	Ablations   bool
}

// AllSuite returns options with every family enabled.
func AllSuite(seeds int) SuiteOptions {
	return SuiteOptions{
		Seeds:  seeds,
		Tables: true, Table5: true, Figures45: true,
		Figure6: true, Sensitivity: true, Ablations: true,
	}
}

// SuiteResult holds whichever family results were requested (others are
// nil) plus the trace cache's counters for the whole run.
type SuiteResult struct {
	Base    *BaseRun
	Table5  *Table5Result
	Figures *Figures45
	// Figure6 is record.Figure6's series: one row per sweep point, one
	// column per policy, cells in MB (render it with Figure6Table).
	Figure6     *stats.Series
	Sensitivity *SensitivityResult
	Ablations   *stats.Table
	Cache       workload.CacheStats
}

// suiteConfigs bundles the workload/simulator factories of every family
// so tests can run the whole suite at reduced scale.
type suiteConfigs struct {
	baseWL     workload.Config
	baseSim    func(string) sim.Config
	fig45WL    workload.Config
	fig45Sim   func(string) sim.Config
	fig6Points []Figure6Point
	fig6WL     func(Figure6Point) workload.Config
	fig6Sim    func(string, Figure6Point) sim.Config
	triggers   []int64
	partitions []int
	conns      []float64
}

// paperConfigs returns the full-scale configurations the paper reports.
func paperConfigs() suiteConfigs {
	return suiteConfigs{
		baseWL:     BaseWorkload(),
		baseSim:    BaseSim,
		fig45WL:    FigureWorkload(),
		fig45Sim:   FigureSim,
		fig6Points: Figure6Points,
		fig6WL:     Figure6Workload,
		fig6Sim:    Figure6Sim,
		triggers:   TriggerIntervals,
		partitions: PartitionSizes,
		conns:      Table5Connectivities,
	}
}

// RunSuite is the one experiment driver: it executes the selected
// families through ONE scheduler draining one flat job queue, with one
// trace cache shared by every family, so each workload trace is
// generated once and replayed by every policy, sweep value, and
// ablation variant that needs it.
func RunSuite(opts SuiteOptions, progress Progress) (*SuiteResult, error) {
	return runSuite(opts, paperConfigs(), progress)
}

// runSuite is the scale-parameterized core of RunSuite.
func runSuite(opts SuiteOptions, cfgs suiteConfigs, progress Progress) (*SuiteResult, error) {
	var cache *workload.TraceCache
	switch {
	case opts.TraceCacheBytes == 0:
		cache = workload.NewTraceCache(workload.DefaultTraceCacheBytes)
	case opts.TraceCacheBytes > 0:
		cache = workload.NewTraceCache(opts.TraceCacheBytes)
	}
	progress = progress.Sync()
	s := newScheduler(opts.Workers, cache, progress)
	defer s.Close()
	if rec := opts.Record; rec != nil {
		s.SetRecordFactory(func(j sim.Job) sim.RunRecorder {
			return rec.NewRun(record.MetaFromLabel(j.Label, j.Sim.Policy))
		})
	}

	// Submission order groups the families that replay the base-workload
	// traces (tables, sensitivity, ablations) so each seed's trace is
	// generated once and stays resident while its consumers drain.
	res := &SuiteResult{}
	if opts.Tables {
		res.Base = submitPolicies(s, "tables", cfgs.baseWL, cfgs.baseSim, opts.Seeds)
	}
	var sens *sensitivityJob
	if opts.Sensitivity {
		sens = submitSensitivity(s, cfgs.baseWL, cfgs.baseSim, cfgs.triggers, cfgs.partitions, opts.Seeds)
	}
	var abl *ablationsJob
	if opts.Ablations {
		abl = submitAblations(s, cfgs.baseWL, cfgs.baseSim, opts.Seeds)
	}
	if opts.Table5 {
		res.Table5 = submitTable5(s, cfgs.baseWL, cfgs.baseSim, cfgs.conns, opts.Seeds)
	}
	var fig45, fig6 []record.FigureRun
	if opts.Figures45 {
		fig45 = submitFigures45(s, cfgs.fig45WL, cfgs.fig45Sim)
	}
	if opts.Figure6 {
		fig6 = submitFigure6(s, cfgs.fig6Points, cfgs.fig6WL, cfgs.fig6Sim, opts.Seeds)
	}

	if err := s.Wait(); err != nil {
		return nil, fmt.Errorf("experiments: suite: %w", err)
	}
	if sens != nil {
		res.Sensitivity = sens.finish()
	}
	if abl != nil {
		res.Ablations = abl.finish()
	}
	if fig45 != nil {
		garbage, dbsize, err := record.Figures45(fig45)
		if err != nil {
			return nil, fmt.Errorf("experiments: figures: %w", err)
		}
		res.Figures = &Figures45{Garbage: garbage, DBSize: dbsize}
	}
	if fig6 != nil {
		var err error
		if res.Figure6, err = record.Figure6(fig6); err != nil {
			return nil, fmt.Errorf("experiments: figure 6: %w", err)
		}
	}
	if cache != nil {
		res.Cache = cache.Stats()
	}
	return res, nil
}
