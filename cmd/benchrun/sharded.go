package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/record"
	"odbgc/internal/shard"
	"odbgc/internal/sim"
	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

// The -sharded preset measures the partition-sharded replay engine on
// one large cross-tree trace at 1, 2, 4, and 8 shards:
//
//   - generate: cmd/tracegen -cross, so a fixed fraction
//     of dense edges target another tree and become cross-shard traffic;
//   - shard legs: each shard count re-exec's this binary as a worker
//     (-sharded-worker) that streams the trace through shard.Engine with
//     Parallel set and prints one JSON result line, so every leg gets
//     its own clean peak-RSS and wall-clock measurement.
//
// On a single-CPU host the shards time-slice one core, so wall clock
// cannot improve with the shard count. The scaling claim is therefore
// critical-path decomposition: shard_local_scaling divides the 1-shard
// leg's total busy time by the N-shard leg's busiest shard — the
// speedup a machine with N free cores would realize on the shard-local
// phase, with the exchange cost measured separately rather than
// assumed away.

// shardedCrossFraction is the fraction of dense edges that cross trees
// in the generated workload; every cross edge between differently-
// routed trees becomes a foreign write and a remset delta.
const shardedCrossFraction = 0.1

// shardedCounts are the shard counts the preset sweeps.
var shardedCounts = []int{1, 2, 4, 8}

// shardedWorkerResult is the JSON line a -sharded-worker leg prints.
type shardedWorkerResult struct {
	Shards          int     `json:"shards"`
	Events          int64   `json:"events"`
	Epochs          int64   `json:"epochs"`
	WallSec         float64 `json:"wall_sec"`
	MaxRSSMB        float64 `json:"max_rss_mb"`
	BusyNsTotal     int64   `json:"busy_ns_total"`
	BusyNsMax       int64   `json:"busy_ns_max"`
	Imbalance       float64 `json:"imbalance"`
	ForeignWrites   int64   `json:"foreign_writes"`
	DeltasExchanged int64   `json:"deltas_exchanged"`
	MessagesSent    int64   `json:"messages_sent"`
	TotalIOs        int64   `json:"total_ios"`
	Collections     int64   `json:"collections"`
	ReclaimedBytes  int64   `json:"reclaimed_bytes"`
}

// runShardedPreset generates one >= targetEvents chunked trace with
// cross-tree edges, replays it through the sharded engine at every
// shard count in shardedCounts, and writes BENCH_<label>.json to outDir.
func runShardedPreset(label, outDir string, targetEvents int64) error {
	tmp, err := os.MkdirTemp("", "benchrun-sharded")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	tracegenBin := filepath.Join(tmp, "tracegen")
	cmd := exec.Command("go", "build", "-o", tracegenBin, "./cmd/tracegen")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building ./cmd/tracegen: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own binary for worker re-exec: %w", err)
	}

	// Cap the Go heap well under physical memory for every child: the
	// generator's tree model and each worker's object tables are the only
	// real consumers, and a runaway would otherwise swap before it OOMs.
	env := []string{"GOMEMLIMIT=80GiB"}
	genPath := filepath.Join(tmp, "sharded.odbgcck")
	genDur, genRSS, s, err := calibratedTrace(tracegenBin, genPath, targetEvents, env,
		"-cross", fmt.Sprint(shardedCrossFraction))
	if err != nil {
		return err
	}
	events := s.Len()
	benchmarks := []Benchmark{streamBench("ShardedGenerate", events, genDur, genRSS, s)}

	var busyTotal1 int64
	for _, n := range shardedCounts {
		// Every leg records its activations; the recording lands in the
		// temp directory and is summarized into the leg's metrics, so the
		// preset exercises the recorder under full parallel load without
		// shipping the (large) .odbgcrec files in the report.
		recPath := filepath.Join(tmp, fmt.Sprintf("sharded_%d.odbgcrec", n))
		res, err := runShardedLeg(self, genPath, n, recPath, env)
		if err != nil {
			return fmt.Errorf("%d-shard leg: %w", n, err)
		}
		recRuns, recActs, recSamps, err := recordingCounts(recPath)
		if err != nil {
			return fmt.Errorf("%d-shard leg recording: %w", n, err)
		}
		if res.Events != events {
			return fmt.Errorf("%d-shard leg replayed %d of %d events", n, res.Events, events)
		}
		if n == 1 {
			busyTotal1 = res.BusyNsTotal
		}
		b := Benchmark{
			Name:       fmt.Sprintf("ShardedReplay/shards=%d", n),
			Iterations: events,
			NsPerOp:    res.WallSec * 1e9 / float64(events),
			Metrics: map[string]float64{
				"shards":           float64(n),
				"events":           float64(events),
				"events_per_sec":   float64(events) / res.WallSec,
				"wall_sec":         res.WallSec,
				"max_rss_mb":       res.MaxRSSMB,
				"epochs":           float64(res.Epochs),
				"busy_total_sec":   float64(res.BusyNsTotal) / 1e9,
				"busy_max_sec":     float64(res.BusyNsMax) / 1e9,
				"imbalance":        res.Imbalance,
				"foreign_writes":   float64(res.ForeignWrites),
				"deltas_exchanged": float64(res.DeltasExchanged),
				"messages_sent":    float64(res.MessagesSent),
				"total_ios":        float64(res.TotalIOs),
				"collections":      float64(res.Collections),
				"reclaimed_mb":     float64(res.ReclaimedBytes) / (1 << 20),
				"recorded_runs":    float64(recRuns),
				"recorded_acts":    float64(recActs),
				"recorded_samples": float64(recSamps),
			},
		}
		if busyTotal1 > 0 && res.BusyNsMax > 0 {
			b.Metrics["shard_local_scaling"] = float64(busyTotal1) / float64(res.BusyNsMax)
		}
		benchmarks = append(benchmarks, b)
		fmt.Fprintf(os.Stderr, "benchrun: %d shards: %.0f ev/s, scaling %.2fx, imbalance %.3f, %d foreign writes\n",
			n, float64(events)/res.WallSec, b.Metrics["shard_local_scaling"], res.Imbalance, res.ForeignWrites)
	}

	report := Report{
		Label:      label,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ChunkBytes: trace.DefaultChunkBytes,
		Packages:   "cmd/tracegen internal/shard",
		BenchRegex: "sharded preset",
		Benchtime:  "1x",
		Count:      1,
		Benchmarks: benchmarks,
	}
	return writeReport(report, outDir)
}

// recordingCounts opens one leg's recording and reports its table sizes,
// validating on the way that the worker wrote a well-formed file.
func recordingCounts(path string) (runs, acts, samps int, err error) {
	f, err := record.ReadFile(path)
	if err != nil {
		return 0, 0, 0, err
	}
	return f.Runs.Rows(), f.Activations.Rows(), f.Samples.Rows(), nil
}

// runShardedLeg re-exec's this binary as a worker for one shard count
// and parses the JSON result line it prints.
func runShardedLeg(self, tracePath string, shards int, recPath string, env []string) (shardedWorkerResult, error) {
	cmd := exec.Command(self,
		"-sharded-worker", tracePath, "-sharded-worker-shards", fmt.Sprint(shards),
		"-sharded-worker-record", recPath)
	cmd.Env = append(os.Environ(), env...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "benchrun: worker -sharded-worker-shards %d\n", shards)
	if err := cmd.Run(); err != nil {
		return shardedWorkerResult{}, err
	}
	var res shardedWorkerResult
	if err := json.Unmarshal([]byte(strings.TrimSpace(stdout.String())), &res); err != nil {
		return shardedWorkerResult{}, fmt.Errorf("parsing worker output %q: %w", stdout.String(), err)
	}
	return res, nil
}

// runShardedWorker is the child side of one shard leg: it streams the
// trace through a parallel sharded engine and prints one JSON result
// line on stdout.
func runShardedWorker(path string, shards int, recPath string) error {
	rt, err := workload.OpenStreamed(path)
	if err != nil {
		return err
	}
	cfg := shard.Config{
		Shards:   shards,
		Parallel: true,
		Sim:      sim.DefaultConfig(core.NameUpdatedPointer),
	}
	var rec *record.Recorder
	if recPath != "" {
		rec = record.NewRecorder()
		cfg.Record = func(i int) sim.RunRecorder {
			m := record.MetaFromLabel("benchrun/sharded/"+core.NameUpdatedPointer, core.NameUpdatedPointer)
			m.Shard = int64(i)
			return rec.NewRun(m)
		}
	}
	eng, err := shard.New(cfg)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := eng.Run(func(s trace.Sink) error { return rt.Replay(s, nil) })
	if err != nil {
		return err
	}
	wall := time.Since(start)
	if rec != nil {
		if err := rec.WriteFile(recPath); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(shardedWorkerResult{
		Shards:          res.Shards,
		Events:          res.Events,
		Epochs:          res.Epochs,
		WallSec:         wall.Seconds(),
		MaxRSSMB:        float64(selfMaxRSS()) / (1 << 20),
		BusyNsTotal:     res.BusyNsTotal,
		BusyNsMax:       res.BusyNsMax,
		Imbalance:       res.Imbalance,
		ForeignWrites:   res.ForeignWrites,
		DeltasExchanged: res.DeltasExchanged,
		MessagesSent:    res.MessagesSent,
		TotalIOs:        res.TotalIOs,
		Collections:     res.Collections,
		ReclaimedBytes:  res.ReclaimedBytes,
	})
}
