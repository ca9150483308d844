package odbgc

// One benchmark per table and figure of the paper's evaluation. Each runs
// a proportionally scaled-down version of the corresponding experiment
// (so `go test -bench=.` finishes in minutes, not the paper's month) and
// reports the experiment's headline metrics via b.ReportMetric. The
// full-scale reproduction is cmd/experiments.

import (
	"fmt"
	"testing"

	"odbgc/internal/experiments"
	"odbgc/internal/record"
	"odbgc/internal/sim"
	"odbgc/internal/workload"
)

// benchWorkload is the base workload scaled to ~1/3 size.
func benchWorkload() workload.Config {
	wl := workload.DefaultConfig()
	wl.TargetLiveBytes = 1_500_000
	wl.TotalAllocBytes = 4_000_000
	wl.MinDeletions = 2000
	return wl
}

func benchSim(policy string) sim.Config {
	cfg := sim.DefaultConfig(policy)
	cfg.Heap.PartitionPages = 24
	cfg.TriggerOverwrites = 150
	return cfg
}

func runOnce(b *testing.B, simCfg sim.Config, wl workload.Config) sim.Result {
	b.Helper()
	res, _, err := sim.RunWorkload(simCfg, wl)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable2Throughput regenerates Table 2's metric — total page I/O
// operations per policy — at reduced scale.
func BenchmarkTable2Throughput(b *testing.B) {
	for _, policy := range PaperPolicies() {
		b.Run(policy, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, benchSim(policy), benchWorkload())
			}
			b.ReportMetric(float64(res.AppIOs), "app_ios")
			b.ReportMetric(float64(res.GCIOs), "gc_ios")
			b.ReportMetric(float64(res.TotalIOs), "total_ios")
		})
	}
}

// BenchmarkTable3MaxStorage regenerates Table 3's metric — the storage
// high-water mark and partition count per policy.
func BenchmarkTable3MaxStorage(b *testing.B) {
	for _, policy := range PaperPolicies() {
		b.Run(policy, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, benchSim(policy), benchWorkload())
			}
			b.ReportMetric(float64(res.MaxOccupiedBytes)/1024, "max_storage_kb")
			b.ReportMetric(float64(res.NumPartitions), "partitions")
		})
	}
}

// BenchmarkTable4Efficiency regenerates Table 4's metrics — garbage
// reclaimed, fraction of actual garbage, and KB reclaimed per collector
// I/O.
func BenchmarkTable4Efficiency(b *testing.B) {
	for _, policy := range PaperPolicies() {
		b.Run(policy, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, benchSim(policy), benchWorkload())
			}
			b.ReportMetric(float64(res.ReclaimedBytes)/1024, "reclaimed_kb")
			b.ReportMetric(100*res.FractionReclaimed(), "fraction_pct")
			b.ReportMetric(res.EfficiencyKBPerIO(), "kb_per_io")
		})
	}
}

// BenchmarkTable5Connectivity regenerates Table 5's sweep — percent of
// garbage reclaimed as connectivity varies — for the paper's winning
// policy and the oracle.
func BenchmarkTable5Connectivity(b *testing.B) {
	for _, d := range experiments.Table5DenseFractions {
		for _, policy := range []string{UpdatedPointer, MostGarbage} {
			b.Run(fmt.Sprintf("C=%.3f/%s", 1+d, policy), func(b *testing.B) {
				wl := benchWorkload()
				wl.DenseEdgeFraction = d
				var res sim.Result
				for i := 0; i < b.N; i++ {
					res = runOnce(b, benchSim(policy), wl)
				}
				b.ReportMetric(100*res.FractionReclaimed(), "fraction_pct")
			})
		}
	}
}

// BenchmarkFigure4GarbageOverTime regenerates Figure 4's series —
// unreclaimed garbage over application events — reporting the mean and
// final values of the sampled curve.
func BenchmarkFigure4GarbageOverTime(b *testing.B) {
	for _, policy := range PaperPolicies() {
		b.Run(policy, func(b *testing.B) {
			cfg := benchSim(policy)
			cfg.SampleEvery = 10_000
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, cfg, benchWorkload())
			}
			garbage := record.TimeSeries(res.Samples).Y[2] // unreclaimed_garbage_kb
			var mean float64
			for _, g := range garbage {
				mean += g
			}
			mean /= float64(len(garbage))
			b.ReportMetric(mean, "mean_garbage_kb")
			b.ReportMetric(garbage[len(garbage)-1], "final_garbage_kb")
		})
	}
}

// BenchmarkFigure5DBSize regenerates Figure 5's series — database size
// over application events.
func BenchmarkFigure5DBSize(b *testing.B) {
	for _, policy := range PaperPolicies() {
		b.Run(policy, func(b *testing.B) {
			cfg := benchSim(policy)
			cfg.SampleEvery = 10_000
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, cfg, benchWorkload())
			}
			size := record.TimeSeries(res.Samples).Y[0] // occupied_kb
			b.ReportMetric(size[len(size)-1], "final_db_kb")
			b.ReportMetric(float64(res.MaxOccupiedBytes)/1024, "max_db_kb")
		})
	}
}

// BenchmarkFigure6Scalability regenerates Figure 6's sweep — storage
// required versus maximum allocated storage — at two reduced database
// sizes per policy group (winner and bounds).
func BenchmarkFigure6Scalability(b *testing.B) {
	points := []struct {
		allocMB   int
		partPages int
	}{{2, 12}, {4, 24}, {8, 32}}
	for _, p := range points {
		for _, policy := range []string{NoCollection, UpdatedPointer, MostGarbage} {
			b.Run(fmt.Sprintf("%dMB/%s", p.allocMB, policy), func(b *testing.B) {
				wl := workload.DefaultConfig()
				wl.TotalAllocBytes = int64(p.allocMB) << 20
				wl.TargetLiveBytes = wl.TotalAllocBytes * 2 / 5
				wl.MinDeletions = wl.TotalAllocBytes / 2300
				cfg := sim.DefaultConfig(policy)
				cfg.Heap.PartitionPages = p.partPages
				cfg.TriggerOverwrites = 150
				var res sim.Result
				for i := 0; i < b.N; i++ {
					res = runOnce(b, cfg, wl)
				}
				b.ReportMetric(float64(res.MaxOccupiedBytes)/(1<<20), "storage_mb")
			})
		}
	}
}

// BenchmarkAblationYNYEnhancement quantifies the paper's enhancement of
// the Yong/Naughton/Yu policy: pointer-store counting (MutatedPartition)
// versus all-mutation counting (MutatedObjectYNY).
func BenchmarkAblationYNYEnhancement(b *testing.B) {
	for _, policy := range []string{MutatedPartition, MutatedObjectYNY} {
		b.Run(policy, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, benchSim(policy), benchWorkload())
			}
			b.ReportMetric(100*res.FractionReclaimed(), "fraction_pct")
			b.ReportMetric(float64(res.TotalIOs), "total_ios")
		})
	}
}

// BenchmarkAblationGlobalSweep measures the cross-partition cycle
// extension at elevated connectivity: reclamation with and without
// periodic global sweeps.
func BenchmarkAblationGlobalSweep(b *testing.B) {
	wl := benchWorkload()
	wl.DenseEdgeFraction = 0.167
	for _, sweep := range []int{0, 5} {
		name := "off"
		if sweep > 0 {
			name = fmt.Sprintf("every%d", sweep)
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchSim(UpdatedPointer)
			cfg.GlobalSweepEvery = sweep
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, cfg, wl)
			}
			b.ReportMetric(100*res.FractionReclaimed(), "fraction_pct")
			b.ReportMetric(float64(res.GCIOs), "gc_ios")
		})
	}
}

// BenchmarkAblationMultiPartition measures collecting k partitions per
// activation (the paper collects exactly one and notes a full
// implementation might collect more).
func BenchmarkAblationMultiPartition(b *testing.B) {
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			cfg := benchSim(UpdatedPointer)
			cfg.CollectPartitions = k
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, cfg, benchWorkload())
			}
			b.ReportMetric(100*res.FractionReclaimed(), "fraction_pct")
			b.ReportMetric(float64(res.MaxOccupiedBytes)/1024, "max_storage_kb")
		})
	}
}

// BenchmarkAblationTrigger compares the paper's overwrite-count trigger
// with the allocation-bytes alternative from its Table 1.
func BenchmarkAblationTrigger(b *testing.B) {
	run := func(b *testing.B, cfg sim.Config) {
		var res sim.Result
		for i := 0; i < b.N; i++ {
			res = runOnce(b, cfg, benchWorkload())
		}
		b.ReportMetric(float64(res.Collections), "collections")
		b.ReportMetric(100*res.FractionReclaimed(), "fraction_pct")
	}
	b.Run("overwrites", func(b *testing.B) {
		run(b, benchSim(UpdatedPointer))
	})
	b.Run("allocation", func(b *testing.B) {
		cfg := benchSim(UpdatedPointer)
		cfg.TriggerOverwrites = 0
		cfg.TriggerAllocationBytes = 150_000
		run(b, cfg)
	})
}

// BenchmarkAblationClientServer runs the base comparison in the
// client/server architecture (a small client cache in front of the
// server buffer), reporting both network transfers and server disk I/O.
func BenchmarkAblationClientServer(b *testing.B) {
	for _, policy := range []string{NoCollection, UpdatedPointer, MostGarbage} {
		b.Run(policy, func(b *testing.B) {
			cfg := benchSim(policy)
			cfg.ClientCachePages = 8
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, cfg, benchWorkload())
			}
			b.ReportMetric(float64(res.TotalIOs), "network_ios")
			b.ReportMetric(float64(res.DiskTotalIOs), "disk_ios")
		})
	}
}

// BenchmarkOO1Transfer runs the OO1-style parts workload (the second
// application shape) under representative policies, reporting reclamation
// — the transfer study behind examples/oo1bench, at reduced scale.
func BenchmarkOO1Transfer(b *testing.B) {
	oo1 := workload.DefaultOO1Config()
	oo1.Parts = 4000
	oo1.RefZone = 40
	oo1.MinDeletions = 8000
	oo1.TotalOps = 600
	for _, policy := range []string{Random, UpdatedPointer, MostGarbage} {
		b.Run(policy, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				g, err := workload.NewOO1(oo1)
				if err != nil {
					b.Fatal(err)
				}
				cfg := sim.DefaultConfig(policy)
				cfg.Heap.PartitionPages = 12
				cfg.TriggerOverwrites = 150
				res, _, err = sim.RunSource(cfg, g)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.FractionReclaimed(), "fraction_pct")
		})
	}
}

// BenchmarkCollectorOnly isolates the collector: cost of one collection
// activation at the base partition size (not a paper table; an internal
// performance benchmark for the library itself).
func BenchmarkCollectorOnly(b *testing.B) {
	wl := benchWorkload()
	for _, policy := range []string{UpdatedPointer, MostGarbage} {
		b.Run(policy, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, benchSim(policy), wl)
			}
			if res.Collections > 0 {
				b.ReportMetric(float64(res.GCIOs)/float64(res.Collections), "ios_per_collection")
			}
		})
	}
}
