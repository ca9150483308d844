// Command benchrun runs the repository's benchmark suite and records the
// results as a machine-readable BENCH_<label>.json file, so the performance
// trajectory of the hot paths can be compared across changes without
// re-parsing `go test -bench` text by hand.
//
// Usage:
//
//	go run ./cmd/benchrun -label baseline
//	go run ./cmd/benchrun -label after -bench 'Table2Throughput|CollectorOnly'
//	go run ./cmd/benchrun -suite
//	go run ./cmd/benchrun -pagebuf
//	go run ./cmd/benchrun -stream
//	go run ./cmd/benchrun -sharded
//
// -suite is a preset for the orchestration benchmark: it runs
// BenchmarkSuiteWallClock (serial vs serial+cache vs parallel+cache) in
// ./internal/experiments and writes results/bench/BENCH_suite.json;
// -label, -bench, -benchtime, -count, -pkg, and -out still override.
//
// -pagebuf is a preset for the page-buffer / trace-replay fast paths: it
// runs the pagebuf and buffer-replay micro benchmarks at a fixed iteration
// count and the end-to-end Table2Throughput/CollectorOnly benchmarks at
// the usual -benchtime 2x, merging both into
// results/bench/BENCH_<label>.json (label defaults to "pagebuf"); only
// -label, -count, and -out override.
//
// -stream is a preset for the chunked streaming pipeline: it generates a
// 100M+ event chunked trace with cmd/tracegen (pipelined chunk encoding),
// drains it in-process through the prefetching ChunkStream replay, and
// replays it into a full simulation with cmd/gcsim -trace, recording
// events/sec and peak RSS for each leg into results/bench/BENCH_stream.json.
// The trace lives in a temp directory and is deleted afterwards.
// -stream-events overrides the target event count (for quick checks);
// -label and -out still override.
//
// -sharded is a preset for the partition-sharded replay engine: it
// generates one 500M+ event chunked trace with cross-tree edges, replays
// it through internal/shard at 1, 2, 4, and 8 shards (each leg a fresh
// worker process for clean peak-RSS numbers), and records events/sec,
// busy-time decomposition, shard_local_scaling, imbalance, and exchange
// volume into results/bench/BENCH_sharded.json. Every leg also writes a
// structured run recording (internal/record) to the temp directory and
// merges its row counts into the leg's metrics, so the recorder is
// exercised under full parallel load. -sharded-events overrides the
// target event count (for quick checks).
//
// The file is written to -out (default ".") as BENCH_<label>.json and holds
// one record per benchmark: name, iterations, ns/op, B/op, allocs/op, and
// every custom metric the benchmark reported (app_ios, fraction_pct, ...),
// stamped with the host's go version, GOOS/GOARCH, GOMAXPROCS, and — for
// the trace-streaming presets — the chunk payload target.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BPerOp     float64            `json:"b_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full BENCH_<label>.json payload.
type Report struct {
	Label      string      `json:"label"`
	Date       string      `json:"date"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	CPU        string      `json:"cpu,omitempty"`
	ChunkBytes int         `json:"chunk_bytes,omitempty"`
	Packages   string      `json:"packages"`
	BenchRegex string      `json:"bench_regex"`
	Benchtime  string      `json:"benchtime"`
	Count      int         `json:"count"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// group is one `go test -bench` invocation: a package set, a benchmark
// regex, and a benchtime. Presets that mix micro and macro benchmarks
// (which need very different benchtimes) run several groups and merge the
// parsed results into one report.
type group struct {
	pkgs      string // space-separated package patterns
	bench     string
	benchtime string
}

func main() {
	label := flag.String("label", "", "label for the output file BENCH_<label>.json (required)")
	bench := flag.String("bench", "BenchmarkTable2Throughput|BenchmarkCollectorOnly",
		"benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "2x", "value passed to go test -benchtime")
	count := flag.Int("count", 1, "value passed to go test -count")
	pkg := flag.String("pkg", ".", "package pattern(s, space-separated) to benchmark")
	out := flag.String("out", ".", "directory for the output file")
	suite := flag.Bool("suite", false, "preset: record the suite wall-clock benchmark to results/bench/BENCH_suite.json")
	pagebuf := flag.Bool("pagebuf", false, "preset: record the page-buffer and buffer-replay fast-path benchmarks plus Table2/CollectorOnly to results/bench/BENCH_<label>.json")
	stream := flag.Bool("stream", false, "preset: record the chunked streaming pipeline (generate, drain, simulate a 100M+ event trace) to results/bench/BENCH_stream.json")
	streamEvents := flag.Int64("stream-events", 110_000_000, "target event count for the -stream preset")
	sharded := flag.Bool("sharded", false, "preset: record the sharded replay of one 500M+ event trace at 1/2/4/8 shards to results/bench/BENCH_sharded.json")
	shardedEvents := flag.Int64("sharded-events", 500_000_000, "target event count for the -sharded preset")
	workerTrace := flag.String("sharded-worker", "", "internal: replay this trace through the sharded engine and print one JSON result line")
	workerShards := flag.Int("sharded-worker-shards", 1, "internal: shard count for -sharded-worker")
	workerRecord := flag.String("sharded-worker-record", "", "internal: write a structured run recording of the -sharded-worker leg to this file")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *workerTrace != "" {
		if err := runShardedWorker(*workerTrace, *workerShards, *workerRecord); err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *sharded {
		if !set["label"] {
			*label = "sharded"
		}
		if !set["out"] {
			*out = "results/bench"
		}
		if err := runShardedPreset(*label, *out, *shardedEvents); err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *stream {
		if !set["label"] {
			*label = "stream"
		}
		if !set["out"] {
			*out = "results/bench"
		}
		if err := runStreamPreset(*label, *out, *streamEvents); err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var groups []group
	switch {
	case *suite && *pagebuf:
		fmt.Fprintln(os.Stderr, "benchrun: -suite and -pagebuf are mutually exclusive")
		os.Exit(2)
	case *suite:
		if !set["label"] {
			*label = "suite"
		}
		if !set["bench"] {
			*bench = "BenchmarkSuiteWallClock"
		}
		if !set["benchtime"] {
			*benchtime = "1x"
		}
		if !set["pkg"] {
			*pkg = "./internal/experiments"
		}
		if !set["out"] {
			*out = "results/bench"
		}
		groups = []group{{pkgs: *pkg, bench: *bench, benchtime: *benchtime}}
	case *pagebuf:
		if !set["label"] {
			*label = "pagebuf"
		}
		if !set["out"] {
			*out = "results/bench"
		}
		groups = []group{
			{
				pkgs:      "./internal/pagebuf ./internal/trace",
				bench:     "BenchmarkPageBufHit$|BenchmarkPageBufMiss$|BenchmarkBufferReplay$",
				benchtime: "300000x",
			},
			{
				pkgs:      ".",
				bench:     "BenchmarkTable2Throughput|BenchmarkCollectorOnly",
				benchtime: "2x",
			},
		}
	default:
		groups = []group{{pkgs: *pkg, bench: *bench, benchtime: *benchtime}}
	}
	if *label == "" {
		fmt.Fprintln(os.Stderr, "benchrun: -label is required")
		flag.Usage()
		os.Exit(2)
	}

	report := Report{
		Label:      *label,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Count:      *count,
	}
	var pkgsDesc, benchDesc, timeDesc []string
	for _, g := range groups {
		pkgsDesc = append(pkgsDesc, g.pkgs)
		benchDesc = append(benchDesc, g.bench)
		timeDesc = append(timeDesc, g.benchtime)
		benchmarks, cpu, err := runGroup(g, *count)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
			os.Exit(1)
		}
		if cpu != "" {
			report.CPU = cpu
		}
		report.Benchmarks = append(report.Benchmarks, benchmarks...)
	}
	report.Packages = strings.Join(pkgsDesc, "; ")
	report.BenchRegex = strings.Join(benchDesc, "; ")
	report.Benchtime = strings.Join(timeDesc, "; ")
	if len(report.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchrun: no benchmark lines matched %q\n", report.BenchRegex)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
		os.Exit(1)
	}
	path := filepath.Join(*out, "BENCH_"+*label+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(report.Benchmarks))
}

// runGroup executes one `go test -bench` invocation and parses its
// result lines.
func runGroup(g group, count int) ([]Benchmark, string, error) {
	args := []string{"test", "-run", "^$", "-bench", g.bench,
		"-benchtime", g.benchtime, "-count", strconv.Itoa(count), "-benchmem"}
	args = append(args, strings.Fields(g.pkgs)...)
	cmd := exec.Command("go", args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "benchrun: go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		return nil, "", fmt.Errorf("go test failed: %v\n%s", err, stdout.String())
	}
	var benchmarks []Benchmark
	var cpu string
	for _, line := range strings.Split(stdout.String(), "\n") {
		line = strings.TrimSpace(line)
		if c, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = c
			continue
		}
		b, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		benchmarks = append(benchmarks, b)
	}
	return benchmarks, cpu, nil
}

// parseBenchLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkFoo/bar-4  2  142683525 ns/op  24627 app_ios  16 B/op  1 allocs/op
//
// Lines that are not benchmark results return ok=false.
func parseBenchLine(line string) (Benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Benchmark{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix from the leaf name.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	// The rest is (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			b.BPerOp = val
		case "allocs/op":
			b.AllocsOp = val
		default:
			b.Metrics[unit] = val
		}
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, true
}
