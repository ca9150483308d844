// Command gcsim runs one partitioned-GC simulation and prints the result.
//
// Usage:
//
//	gcsim [-policy NAME] [-seeds N] [-live BYTES] [-alloc BYTES]
//	      [-partition-pages N] [-buffer-pages N] [-trigger N]
//	      [-dense F] [-cross F] [-trees N] [-series FILE] [-inspect]
//	      [-warm] [-audit] [-record FILE] [-trace FILE]
//	      [-shards N] [-shard-assign roundrobin|range] [-epoch-events N]
//
// With -seeds > 1 it reports mean ± stddev over seeded runs, and with
// -policy all one row per paper policy. -series (the time series as
// CSV), -inspect (the final partition occupancy) and -record describe
// one run, so either multi-run mode rejects them. -warm excludes the
// generator's build phase from measurement in every mode. -audit runs
// the full cross-structure invariant catalog (internal/check) after
// every collection, in every shard's simulator with -shards — orders of
// magnitude slower, for validation runs.
// -record writes a structured run recording (one row per GC activation
// and time-series sample; sharded replays tag rows with their shard and
// epoch) for offline analysis with odbgc-query.
//
// With -trace the simulation replays a tracegen file (a chunked trace)
// instead of running the generator live. The file streams through a
// prefetching pipeline at two chunks of resident memory, so traces far
// larger than RAM simulate fine.
//
// With -shards N the replay runs through the partition-sharded engine
// (internal/shard): N shards, each owning a private heap, buffer,
// remembered sets, and collector, drain every epoch on their own
// goroutines, and one exchange applies the cross-shard remembered-set
// deltas between epochs. Results are seed-stable regardless of
// goroutine interleaving.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"odbgc/internal/check"
	"odbgc/internal/core"
	"odbgc/internal/record"
	"odbgc/internal/shard"
	"odbgc/internal/sim"
	"odbgc/internal/stats"
	"odbgc/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gcsim:", err)
		os.Exit(1)
	}
}

// run is the whole command, separated from main so tests can drive it
// in-process with arbitrary arguments and capture its output.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		policy    = fs.String("policy", core.NameUpdatedPointer, `selection policy ("all" compares the paper's six): `+strings.Join(core.Names(), ", "))
		seeds     = fs.Int("seeds", 1, "number of seeded runs")
		live      = fs.Int64("live", 0, "live-data setpoint in bytes (0 = paper default)")
		alloc     = fs.Int64("alloc", 0, "total allocation target in bytes (0 = paper default)")
		partPages = fs.Int("partition-pages", 0, "8 KB pages per partition (0 = paper default 48)")
		bufPages  = fs.Int("buffer-pages", 0, "buffer pages (0 = one partition)")
		trigger   = fs.Int64("trigger", 0, "pointer overwrites per collection (0 = default 280)")
		dense     = fs.Float64("dense", -1, "dense edge fraction (connectivity-1); negative = default")
		cross     = fs.Float64("cross", 0, "fraction of dense edges that target another tree")
		trees     = fs.Int("trees", 0, "mean nodes per tree (0 = default)")
		series    = fs.String("series", "", "write single-run time series CSV to this file")
		recPath   = fs.String("record", "", "write a structured run recording (.odbgcrec, see odbgc-query) to this file")
		inspect   = fs.Bool("inspect", false, "print per-partition occupancy at end of a single run")
		warm      = fs.Bool("warm", false, "warm start: exclude the build phase from measurement")
		audit     = fs.Bool("audit", false, "run the full invariant audit after every collection (slow)")
		traceFile = fs.String("trace", "", "replay a tracegen trace file instead of generating the workload")
		shards    = fs.Int("shards", 0, "replay -trace through the sharded engine with this many shards (0 = unsharded)")
		shAssign  = fs.String("shard-assign", "roundrobin", "tree-to-shard assignment for -shards: roundrobin or range")
		epochEv   = fs.Int64("epoch-events", 0, "epoch length in events for -shards (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *seeds < 1:
		return fmt.Errorf("-seeds %d: need at least 1 seeded run", *seeds)
	case *partPages < 0:
		return fmt.Errorf("-partition-pages %d: page count cannot be negative", *partPages)
	case *bufPages < 0:
		return fmt.Errorf("-buffer-pages %d: page count cannot be negative", *bufPages)
	case *trigger < 0:
		return fmt.Errorf("-trigger %d: overwrite count cannot be negative", *trigger)
	case *live < 0:
		return fmt.Errorf("-live %d: byte count cannot be negative", *live)
	case *alloc < 0:
		return fmt.Errorf("-alloc %d: byte count cannot be negative", *alloc)
	case *trees < 0:
		return fmt.Errorf("-trees %d: node count cannot be negative", *trees)
	case *cross < 0 || *cross > 1:
		return fmt.Errorf("-cross %g: fraction must be in [0,1]", *cross)
	case *shards < 0:
		return fmt.Errorf("-shards %d: shard count cannot be negative", *shards)
	case *shards > shard.MaxShards:
		return fmt.Errorf("-shards %d: exceeds the %d-shard cap (shard IDs pack into single bytes)", *shards, shard.MaxShards)
	case *shards > 0 && *traceFile == "":
		return fmt.Errorf("-shards requires -trace: the sharded engine demultiplexes a recorded trace, not a live generator")
	case *shards == 0 && *shAssign != "roundrobin":
		return fmt.Errorf("-shard-assign only applies with -shards")
	case *shards == 0 && *epochEv != 0:
		return fmt.Errorf("-epoch-events only applies with -shards")
	case *epochEv < 0:
		return fmt.Errorf("-epoch-events %d: epoch length cannot be negative", *epochEv)
	case *recPath != "" && *seeds > 1:
		return fmt.Errorf("-record records one run; it does not apply with -seeds %d (record seeds individually, or use the experiments command)", *seeds)
	case *recPath != "" && *policy == "all":
		return fmt.Errorf("-record records one run; it does not apply with -policy all")
	case *series != "" && *seeds > 1:
		return fmt.Errorf("-series writes one run's time series; it does not apply with -seeds %d", *seeds)
	case *series != "" && *policy == "all":
		return fmt.Errorf("-series writes one run's time series; it does not apply with -policy all")
	case *inspect && *seeds > 1:
		return fmt.Errorf("-inspect reports one run's partitions; it does not apply with -seeds %d", *seeds)
	case *inspect && *policy == "all":
		return fmt.Errorf("-inspect reports one run's partitions; it does not apply with -policy all")
	}

	// simConfig is the one translation of the simulator flags into a
	// sim.Config; every mode builds its configuration here. The checks
	// above reject each flag a mode cannot honour, so none arrives set.
	simConfig := func(policy string) sim.Config {
		cfg := sim.DefaultConfig(policy)
		if *partPages > 0 {
			cfg.Heap.PartitionPages = *partPages
		}
		if *bufPages > 0 {
			cfg.BufferPages = *bufPages
		}
		if *trigger > 0 {
			cfg.TriggerOverwrites = *trigger
		}
		if *series != "" {
			cfg.SampleEvery = 10_000
		}
		cfg.WarmStart = *warm
		if *audit {
			cfg.Audit = check.Audited(0)
		}
		return cfg
	}

	if *traceFile != "" {
		// Replay mode: the trace already fixes the workload, so workload
		// shaping and multi-seed flags contradict it.
		for flagName, set := range map[string]bool{
			"-seeds": *seeds > 1,
			"-live":  *live > 0,
			"-alloc": *alloc > 0,
			"-dense": *dense >= 0,
			"-cross": *cross > 0,
			"-trees": *trees > 0,
			"-warm":  *warm,
		} {
			if set {
				return fmt.Errorf("%s does not apply when replaying -trace %s (the trace fixes the workload)", flagName, *traceFile)
			}
		}
		if *policy == "all" {
			return fmt.Errorf("-policy all is not supported with -trace; run one policy per replay")
		}
		if *shards > 0 {
			// Sharded replay: each shard is a private simulator, so the
			// single-heap inspection and time-series paths do not apply.
			// -audit audits every shard's heap after each of its
			// collections.
			switch {
			case *series != "":
				return fmt.Errorf("-series does not apply to sharded replay (no single time series exists across shards)")
			case *inspect:
				return fmt.Errorf("-inspect does not apply to sharded replay")
			}
			assign, err := shard.ParseAssignment(*shAssign)
			if err != nil {
				return fmt.Errorf("-shard-assign: %w", err)
			}
			return replaySharded(stdout, *traceFile, simConfig(*policy), *shards, assign, *epochEv, *recPath)
		}
		// The streamed replay prefetches chunk N+1 while the simulator
		// drains chunk N.
		rt, err := workload.OpenStreamed(*traceFile)
		if err != nil {
			return err
		}
		return singleRun(stdout, simConfig(*policy), *inspect, *series, *recPath,
			func(s *sim.Sim) (workload.Stats, error) { return workload.Stats{}, rt.Replay(s, nil) })
	}

	wl := workload.DefaultConfig()
	if *live > 0 {
		wl.TargetLiveBytes = *live
	}
	if *alloc > 0 {
		wl.TotalAllocBytes = *alloc
	}
	if *dense >= 0 {
		wl.DenseEdgeFraction = *dense
	}
	wl.CrossTreeFraction = *cross
	if *trees > 0 {
		wl.MeanTreeNodes = *trees
	}

	if *policy == "all" {
		return compareAll(stdout, wl, *seeds, simConfig)
	}
	cfg := simConfig(*policy)
	if *seeds == 1 {
		return singleRun(stdout, cfg, *inspect, *series, *recPath, func(s *sim.Sim) (workload.Stats, error) {
			g, err := workload.New(wl)
			if err != nil {
				return workload.Stats{}, err
			}
			if cfg.WarmStart {
				g.SetBuildCompleteHook(s.ResetMeasurement)
			}
			return g.Run(s)
		})
	}

	results, err := sim.RunSeeds(cfg, wl, *seeds)
	if err != nil {
		return err
	}
	agg := sim.Aggregates(results)
	t := stats.NewTable(fmt.Sprintf("%s over %d seeds", agg.Policy, agg.N), "Metric", "Mean", "Std Dev")
	t.AddRow("Application I/Os", f0(agg.AppIOs.Mean), f0(agg.AppIOs.StdDev))
	t.AddRow("Collector I/Os", f0(agg.GCIOs.Mean), f0(agg.GCIOs.StdDev))
	t.AddRow("Total I/Os", f0(agg.TotalIOs.Mean), f0(agg.TotalIOs.StdDev))
	t.AddRow("Max storage (KB)", f0(agg.MaxOccupiedKB.Mean), f0(agg.MaxOccupiedKB.StdDev))
	t.AddRow("Partitions", f1(agg.NumPartitions.Mean), f1(agg.NumPartitions.StdDev))
	t.AddRow("Collections", f1(agg.Collections.Mean), f1(agg.Collections.StdDev))
	t.AddRow("Reclaimed (KB)", f0(agg.ReclaimedKB.Mean), f0(agg.ReclaimedKB.StdDev))
	t.AddRow("Fraction reclaimed (%)", f1(agg.FractionReclaimed.Mean), f1(agg.FractionReclaimed.StdDev))
	t.AddRow("Efficiency (KB/IO)", f2(agg.EfficiencyKBPerIO.Mean), f2(agg.EfficiencyKBPerIO.StdDev))
	fmt.Fprintln(stdout, t)
	return nil
}

// singleRun runs one simulation of cfg, fed by drive (a live generator
// or a trace replay), then audits it, reports the final partitions when
// inspect is set, prints the result, and writes the time series and the
// run recording when their paths are set.
func singleRun(stdout io.Writer, cfg sim.Config, inspect bool, series, recPath string,
	drive func(*sim.Sim) (workload.Stats, error)) error {
	var rec *record.Recorder
	var recRun *record.Run
	if recPath != "" {
		rec = record.NewRecorder()
		recRun = rec.NewRun(record.MetaFromLabel("gcsim/"+cfg.Policy, cfg.Policy))
		cfg.Record = recRun.Hooks()
	}
	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	wlStats, err := drive(s)
	if err != nil {
		return err
	}
	if err := s.Audit(); err != nil {
		return err
	}
	if inspect {
		printPartitions(stdout, s.InspectPartitions())
	}
	res := s.Finish()
	printResult(stdout, res, wlStats)
	if series != "" {
		if err := record.TimeSeries(res.Samples).WriteCSVFile(series); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "series ->", series)
	}
	if rec != nil {
		recRun.Finish(res)
		if err := writeRecording(stdout, rec, recPath); err != nil {
			return err
		}
	}
	return nil
}

// writeRecording persists a recording and reports where it went.
func writeRecording(stdout io.Writer, rec *record.Recorder, path string) error {
	if err := rec.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "recording ->", path)
	return nil
}

// compareAll runs every paper policy on the identical workload and
// renders one comparison row per policy.
func compareAll(stdout io.Writer, wl workload.Config, seeds int, simConfig func(string) sim.Config) error {
	t := stats.NewTable(fmt.Sprintf("Policy comparison over %d seed(s)", seeds),
		"Policy", "Total I/Os", "Max KB", "Reclaimed KB", "Fraction %", "KB/IO")
	for _, policy := range core.PaperNames() {
		results, err := sim.RunSeeds(simConfig(policy), wl, seeds)
		if err != nil {
			return err
		}
		agg := sim.Aggregates(results)
		t.AddRow(policy,
			f0(agg.TotalIOs.Mean),
			f0(agg.MaxOccupiedKB.Mean),
			f0(agg.ReclaimedKB.Mean),
			f1(agg.FractionReclaimed.Mean),
			f2(agg.EfficiencyKBPerIO.Mean))
	}
	fmt.Fprintln(stdout, t)
	return nil
}

func printPartitions(stdout io.Writer, parts []sim.PartitionInfo) {
	t := stats.NewTable("Final partition occupancy",
		"Partition", "Used KB", "Live KB", "Garbage KB", "Objects", "Remset")
	for _, p := range parts {
		id := fmt.Sprint(p.ID)
		if p.Empty {
			id += " (empty)"
		}
		t.AddRow(id,
			fmt.Sprint(p.UsedBytes/1024),
			fmt.Sprint(p.LiveBytes/1024),
			fmt.Sprint(p.GarbageBytes/1024),
			fmt.Sprint(p.Objects),
			fmt.Sprint(p.RemsetEntries))
	}
	fmt.Fprintln(stdout, t)
}

// diskTimePerIO is the modeled time of one page I/O on an early-90s disk
// like the paper's DECstation's, the detailed cost model Section 4.2
// sketches: 12 ms average seek, 5.5 ms rotational latency (5400 RPM) and
// 2 ms to transfer an 8 KB page. The simulation counts I/Os; the disk
// time row is presentation arithmetic over them.
const diskTimePerIO = 19500 * time.Microsecond

func printResult(stdout io.Writer, res sim.Result, wlStats workload.Stats) {
	t := stats.NewTable("Simulation result: "+res.Policy, "Metric", "Value")
	t.AddRow("Application events", fmt.Sprint(res.Events))
	if wlStats.Events > 0 {
		// Trace replays carry no generator statistics.
		t.AddRow("Edge read/write ratio", f1(wlStats.EdgeReadWriteRatio))
	}
	t.AddRow("Application I/Os", fmt.Sprint(res.AppIOs))
	t.AddRow("Collector I/Os", fmt.Sprint(res.GCIOs))
	t.AddRow("Total I/Os", fmt.Sprint(res.TotalIOs))
	t.AddRow("Collections", fmt.Sprint(res.Collections))
	t.AddRow("Max storage (KB)", fmt.Sprint(res.MaxOccupiedBytes/1024))
	t.AddRow("Partitions", fmt.Sprint(res.NumPartitions))
	t.AddRow("Reclaimed (KB)", fmt.Sprint(res.ReclaimedBytes/1024))
	t.AddRow("Actual garbage (KB)", fmt.Sprint(res.ActualGarbageBytes/1024))
	t.AddRow("Fraction reclaimed (%)", f1(100*res.FractionReclaimed()))
	t.AddRow("Efficiency (KB/IO)", f2(res.EfficiencyKBPerIO()))
	disk := time.Duration(res.AppIOs+res.GCIOs) * diskTimePerIO
	t.AddRow("Est. disk time (1993 disk)", disk.Round(10*time.Millisecond).String())
	fmt.Fprintln(stdout, t)
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
