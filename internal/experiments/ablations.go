package experiments

import (
	"fmt"

	"odbgc/internal/core"
	"odbgc/internal/sim"
	"odbgc/internal/stats"
	"odbgc/internal/workload"
)

// The extension ablations (the YNY enhancement, periodic global sweeps,
// multi-partition collection, the allocation trigger, client/server
// caching) run at full base-workload scale; the scaled-down versions live
// in the root benchmarks. Each row reports reclamation and total I/O so
// the trade-off is visible.

// ablationsJob holds the in-flight variants' result slots in table-row
// order; finish renders the table.
type ablationsJob struct {
	names   []string
	results [][]sim.Result
}

// ablationVariants builds the (name, config) rows from a base sim
// factory.
func ablationVariants(mkSim func(string) sim.Config) (names []string, cfgs []sim.Config) {
	add := func(name string, cfg sim.Config) {
		names = append(names, name)
		cfgs = append(cfgs, cfg)
	}
	// The paper's enhanced policy vs the unenhanced YNY original.
	add("MutatedPartition (pointer stores only)", mkSim(core.NameMutatedPartition))
	add("MutatedObjectYNY (all mutations)", mkSim(core.NameMutatedObjectYNY))

	// UpdatedPointer baseline and its extension variants.
	add("UpdatedPointer", mkSim(core.NameUpdatedPointer))
	sweep := mkSim(core.NameUpdatedPointer)
	sweep.GlobalSweepEvery = 10
	add("UpdatedPointer + global sweep every 10", sweep)
	multi := mkSim(core.NameUpdatedPointer)
	multi.CollectPartitions = 2
	add("UpdatedPointer, top-2 partitions", multi)
	alloc := mkSim(core.NameUpdatedPointer)
	alloc.TriggerOverwrites = 0
	// Match the overwrite trigger's collection cadence: the base workload
	// allocates ~11.5 MB over ~30 collections.
	alloc.TriggerAllocationBytes = 380_000
	add("UpdatedPointer, allocation trigger", alloc)
	cs := mkSim(core.NameUpdatedPointer)
	cs.ClientCachePages = 16
	add("UpdatedPointer, client/server (16-page cache)", cs)
	return names, cfgs
}

// submitAblations flattens every ablation variant into scheduler jobs.
// All variants replay the same base-workload seeds, sharing their traces
// with each other (and the base/sensitivity experiments) through the
// cache.
func submitAblations(s *sim.Scheduler, wl workload.Config, mkSim func(string) sim.Config, seeds int) *ablationsJob {
	names, cfgs := ablationVariants(mkSim)
	j := &ablationsJob{names: names, results: make([][]sim.Result, len(names))}
	for vi, cfg := range cfgs {
		j.results[vi] = make([]sim.Result, seeds)
		for i := 0; i < seeds; i++ {
			s.Submit(sim.SeedJob("ablation/"+names[vi], cfg, wl, i, &j.results[vi][i]))
		}
	}
	return j
}

// finish renders the ablation table in the fixed variant order.
func (j *ablationsJob) finish() *stats.Table {
	t := stats.NewTable("Ablations (base workload, means over seeds)",
		"Variant", "Total I/Os", "Reclaimed KB", "Fraction %", "Collections")
	for vi, name := range j.names {
		agg := sim.Aggregates(j.results[vi])
		t.AddRow(name,
			fmt.Sprintf("%.0f", agg.TotalIOs.Mean),
			fmt.Sprintf("%.0f", agg.ReclaimedKB.Mean),
			fmt.Sprintf("%.1f", agg.FractionReclaimed.Mean),
			fmt.Sprintf("%.1f", agg.Collections.Mean))
	}
	return t
}
