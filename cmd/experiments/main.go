// Command experiments regenerates the paper's evaluation: Tables 2–4 from
// one shared set of base runs, Table 5's connectivity sweep, Figures 4 and
// 5 as CSV time series, and Figure 6's scalability sweep.
//
// Usage:
//
//	experiments [-seeds N] [-workers N] [-outdir DIR]
//	            [-tables] [-table5] [-fig45] [-fig6] [-record FILE|none]
//	            [-tracecache MB] [-cpuprofile FILE] [-memprofile FILE]
//	experiments -selfcheck [-short]
//
// With no selection flags, everything runs. All selected families drain
// through one scheduler worker pool sharing one workload-trace cache, so
// a trace is generated once no matter how many policies replay it.
// Tables go to stdout; figure CSVs go to outdir (default "results").
//
// Every suite run also writes a structured run recording — one row per
// run, GC activation, and time-series sample — to -record (default
// <outdir>/experiments.odbgcrec; "none" disables). Query it, or
// regenerate the figure CSVs from it bit-identically, with odbgc-query.
//
// -selfcheck runs the differential validation harness instead of the
// suite: small audited runs of every policy, replayed through independent
// reference paths (streamed vs in-memory trace, recorded vs live, serial
// vs parallel, sharded parallel vs serial), failing loudly on the first
// divergence or invariant violation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"odbgc/internal/check"
	"odbgc/internal/experiments"
	"odbgc/internal/record"
	"odbgc/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run is the whole command, separated from main so tests can drive it
// in-process with arbitrary arguments and capture its output.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds      = fs.Int("seeds", 10, "seeded runs per configuration (the paper uses 10)")
		workers    = fs.Int("workers", 0, "scheduler worker goroutines (0 = GOMAXPROCS)")
		cacheMB    = fs.Int64("tracecache", 256, "workload trace cache budget in MB (0 disables the cache)")
		outdir     = fs.String("outdir", "results", "directory for figure CSV files")
		tables     = fs.Bool("tables", false, "run Tables 2-4 (base configuration)")
		table5     = fs.Bool("table5", false, "run Table 5 (connectivity sweep)")
		fig45      = fs.Bool("fig45", false, "run Figures 4 and 5 (time-varying behavior)")
		fig6       = fs.Bool("fig6", false, "run Figure 6 (scalability sweep)")
		sens       = fs.Bool("sensitivity", false, "run trigger and partition-size sensitivity sweeps (extension)")
		abl        = fs.Bool("ablations", false, "run extension ablations at full scale (extension)")
		selfcheck  = fs.Bool("selfcheck", false, "run the differential self-check harness instead of the suite")
		short      = fs.Bool("short", false, "with -selfcheck: smaller workload and fewer seeds")
		recordPath = fs.String("record", "", "structured run recording file (default <outdir>/experiments.odbgcrec; \"none\" disables)")
		quiet      = fs.Bool("q", false, "suppress progress output")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *seeds < 1:
		return fmt.Errorf("-seeds %d: need at least 1 seeded run", *seeds)
	case *workers < 0:
		return fmt.Errorf("-workers %d: worker count cannot be negative", *workers)
	}

	progress := experiments.Progress(func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	})

	if *selfcheck {
		if err := check.SelfCheck(check.Options{Short: *short, Logf: progress}); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "selfcheck: all differential and invariant checks passed")
		return nil
	}

	all := !*tables && !*table5 && !*fig45 && !*fig6 && !*sens && !*abl

	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	opts := experiments.SuiteOptions{
		Seeds:       *seeds,
		Workers:     *workers,
		Tables:      all || *tables,
		Table5:      all || *table5,
		Figures45:   all || *fig45,
		Figure6:     all || *fig6,
		Sensitivity: *sens, // extension sweeps run only on request
		Ablations:   *abl,  // extension ablations run only on request
	}
	if *cacheMB <= 0 {
		opts.TraceCacheBytes = -1
	} else {
		opts.TraceCacheBytes = *cacheMB << 20
	}
	// Recording is on by default: every suite run leaves a queryable
	// .odbgcrec next to its figure CSVs.
	if *recordPath == "" {
		*recordPath = filepath.Join(*outdir, "experiments.odbgcrec")
	}
	if *recordPath == "none" {
		*recordPath = ""
	} else {
		opts.Record = record.NewRecorder()
	}

	res, err := experiments.RunSuite(opts, progress)
	if err != nil {
		return err
	}
	if opts.Record != nil {
		if err := opts.Record.WriteFile(*recordPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Run recording -> %s (%d runs; query with odbgc-query)\n", *recordPath, opts.Record.Runs())
	}
	if !*quiet && opts.TraceCacheBytes > 0 {
		c := res.Cache
		fmt.Fprintf(stderr, "trace cache: %d generated, %d replayed from cache, %d evicted, peak %d MB\n",
			c.Misses, c.Hits, c.Evictions, c.PeakBytes>>20)
	}

	if res.Base != nil {
		fmt.Fprintln(stdout, res.Base.Table2())
		fmt.Fprintln(stdout, res.Base.Table3())
		fmt.Fprintln(stdout, res.Base.Table4())
	}
	if res.Table5 != nil {
		fmt.Fprintln(stdout, res.Table5.Table())
	}
	if res.Figures != nil {
		figs := res.Figures
		if err := writeCSV(filepath.Join(*outdir, "figure4_unreclaimed_garbage.csv"), figs.Garbage); err != nil {
			return err
		}
		if err := writeCSV(filepath.Join(*outdir, "figure5_database_size.csv"), figs.DBSize); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Figure 4 series -> %s (%d samples per policy)\n",
			filepath.Join(*outdir, "figure4_unreclaimed_garbage.csv"), figs.Garbage.Len())
		fmt.Fprintf(stdout, "Figure 5 series -> %s (%d samples per policy)\n\n",
			filepath.Join(*outdir, "figure5_database_size.csv"), figs.DBSize.Len())
		fmt.Fprintln(stdout, endpointTable(figs))
	}
	if res.Figure6 != nil {
		fmt.Fprintln(stdout, experiments.Figure6Table(res.Figure6))
		if err := writeCSV(filepath.Join(*outdir, "figure6_storage_required.csv"), res.Figure6); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Figure 6 series -> %s\n", filepath.Join(*outdir, "figure6_storage_required.csv"))
	}
	if res.Sensitivity != nil {
		fmt.Fprintln(stdout, res.Sensitivity.TriggerTable())
		fmt.Fprintln(stdout, res.Sensitivity.PartitionTable())
	}
	if res.Ablations != nil {
		fmt.Fprintln(stdout, res.Ablations)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// endpointTable summarizes the figure series' final samples so the
// time-varying result is legible without plotting.
func endpointTable(figs *experiments.Figures45) *stats.Table {
	t := stats.NewTable("Figures 4 & 5 endpoints (final sample)",
		"Policy", "Unreclaimed Garbage KB", "Database Size KB")
	n := figs.Garbage.Len() - 1
	for i, policy := range figs.Garbage.Names {
		t.AddRow(policy,
			fmt.Sprintf("%.0f", figs.Garbage.Y[i][n]),
			fmt.Sprintf("%.0f", figs.DBSize.Y[i][n]))
	}
	return t
}

func writeCSV(path string, s *stats.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}
