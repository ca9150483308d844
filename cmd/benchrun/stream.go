package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"odbgc/internal/trace"
)

// The -stream preset measures the three legs of the chunked streaming
// pipeline on one large trace:
//
//   - generate: cmd/tracegen, chunk encoding pipelined
//     with file I/O on a background writer;
//   - drain: in-process ChunkStream replay (read, CRC, columnar decode
//     on the prefetch goroutine; zero-alloc drain on this one) — the
//     pure streaming path, whose resident set is two chunks no matter
//     how long the trace is;
//   - simulate: cmd/gcsim -trace, a full partitioned-GC simulation fed
//     by the streamed trace.
//
// Each leg records events/sec and peak RSS. The generator's and
// simulator's memory scale with their models (live trees, object
// table), not with the trace; the drain leg's RSS is the constant-
// memory claim itself: benchrun's whole process stays tens of MB while
// a multi-hundred-MB trace streams through it.

// streamLiveBytes keeps the generator's in-memory tree model at the
// paper's default scale regardless of how long the trace runs.
const streamLiveBytes = 4_500_000

// runStreamPreset builds the CLI tools, calibrates how many events the
// workload emits per allocated byte, generates a trace of at least
// targetEvents events, then measures the three legs and writes
// BENCH_<label>.json to outDir.
func runStreamPreset(label, outDir string, targetEvents int64) error {
	tmp, err := os.MkdirTemp("", "benchrun-stream")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	tracegenBin := filepath.Join(tmp, "tracegen")
	gcsimBin := filepath.Join(tmp, "gcsim")
	for bin, pkg := range map[string]string{tracegenBin: "./cmd/tracegen", gcsimBin: "./cmd/gcsim"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("building %s: %w", pkg, err)
		}
	}

	genPath := filepath.Join(tmp, "stream.odbgcck")
	genDur, genRSS, s, err := calibratedTrace(tracegenBin, genPath, targetEvents, nil)
	if err != nil {
		return err
	}
	events := s.Len()
	var benchmarks []Benchmark
	benchmarks = append(benchmarks, streamBench("StreamGenerate", events, genDur, genRSS, s))

	// Leg 2: in-process streaming drain at two chunks of resident memory.
	var count countingSink
	drainStart := time.Now()
	if err := s.Replay(&count); err != nil {
		return fmt.Errorf("drain run: %w", err)
	}
	drainDur := time.Since(drainStart)
	if int64(count) != events {
		return fmt.Errorf("drain delivered %d of %d events", count, events)
	}
	benchmarks = append(benchmarks, streamBench("StreamDrain", events, drainDur, selfMaxRSS(), s))

	// Leg 3: full simulation fed by the streamed trace.
	simDur, simRSS, err := timedExec(gcsimBin, "-trace", genPath)
	if err != nil {
		return fmt.Errorf("simulation run: %w", err)
	}
	benchmarks = append(benchmarks, streamBench("StreamSimReplay", events, simDur, simRSS, s))

	report := Report{
		Label:      label,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ChunkBytes: trace.DefaultChunkBytes,
		Packages:   "cmd/tracegen cmd/gcsim internal/trace",
		BenchRegex: "stream preset",
		Benchtime:  "1x",
		Count:      1,
		Benchmarks: benchmarks,
	}
	return writeReport(report, outDir)
}

// writeReport marshals a report to BENCH_<label>.json under outDir.
func writeReport(report Report, outDir string) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "BENCH_"+report.Label+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(report.Benchmarks))
	return nil
}

// calibratedTrace generates a chunked trace of at least target events at
// path. Events-per-allocated-byte is not constant across scales — reads
// come from traversals of the fixed-size live set while creates scale
// with the allocation budget, so short runs are much read-denser than
// long ones. Calibrate iteratively: start small, fit events(alloc) as an
// affine function of the last two runs, and regenerate until the target
// is met. The final (successful) run is the measured generation leg:
// its wall time, the generator's peak RSS, and an open stream over the
// trace are returned.
func calibratedTrace(tracegenBin, path string, target int64, env []string, extra ...string) (time.Duration, int64, *trace.ChunkStream, error) {
	// The first probe is cheap — 20 MB of allocation, floored at twice
	// the live setpoint (the generator rejects an allocation budget below
	// its live target) — and the affine fit takes over from there: the
	// events-per-byte ratio drifts down with scale, so one big blind
	// guess could overshoot by many minutes of generation. The event cap
	// stays clear of the probe's output so it only guards runaways.
	var (
		genDur         time.Duration
		genRSS, events int64
		s              *trace.ChunkStream
		err            error
		alloc          int64 = min(20_000_000, max(2*streamLiveBytes, 3*target))
		prevAlloc      int64
		prevEvents     int64
	)
	const maxAttempts = 6
	for attempt := 1; ; attempt++ {
		args := []string{"-o", path,
			"-live", fmt.Sprint(streamLiveBytes), "-alloc", fmt.Sprint(alloc),
			"-max-events", fmt.Sprint(max(4*target, 40_000_000))}
		args = append(args, extra...)
		genDur, genRSS, err = timedExecEnv(env, tracegenBin, args...)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("generation run: %w", err)
		}
		if s, err = trace.OpenChunkStream(path); err != nil {
			return 0, 0, nil, err
		}
		events = s.Len()
		if events >= target {
			break
		}
		if attempt == maxAttempts {
			return 0, 0, nil, fmt.Errorf("generated trace has %d events after %d calibration rounds, below the %d target",
				events, maxAttempts, target)
		}
		// Solve a + b*alloc = 1.1*target from the last two (alloc,
		// events) points; with only one point, assume proportionality.
		next := int64(1.1 * float64(target) * float64(alloc) / float64(events))
		if prevAlloc > 0 && events > prevEvents {
			b := float64(events-prevEvents) / float64(alloc-prevAlloc)
			a := float64(events) - b*float64(alloc)
			next = int64((1.1*float64(target) - a) / b)
		}
		prevAlloc, prevEvents = alloc, events
		if next < alloc*3/2 {
			next = alloc * 3 / 2
		}
		alloc = next
		fmt.Fprintf(os.Stderr, "benchrun: calibration round %d: %d events at -alloc %d; retrying at %d\n",
			attempt, events, prevAlloc, alloc)
	}
	fmt.Fprintf(os.Stderr, "benchrun: generated %d events, %d chunks, %.1f MB\n",
		events, s.Chunks(), float64(s.SizeBytes())/(1<<20))
	return genDur, genRSS, s, nil
}

// streamBench renders one leg as a Benchmark record: ns per event plus
// throughput, peak memory, and trace-shape metrics.
func streamBench(name string, events int64, dur time.Duration, rssBytes int64, s *trace.ChunkStream) Benchmark {
	return Benchmark{
		Name:       name,
		Iterations: events,
		NsPerOp:    float64(dur.Nanoseconds()) / float64(events),
		Metrics: map[string]float64{
			"events":          float64(events),
			"events_per_sec":  float64(events) / dur.Seconds(),
			"wall_sec":        dur.Seconds(),
			"max_rss_mb":      float64(rssBytes) / (1 << 20),
			"trace_mb":        float64(s.SizeBytes()) / (1 << 20),
			"chunks":          float64(s.Chunks()),
			"resident_budget": float64(s.ResidentBytes()),
		},
	}
}

// countingSink counts replayed events and discards them.
type countingSink int64

func (c *countingSink) Emit(trace.Event) error {
	*c++
	return nil
}

// timedExec runs a command to completion, returning its wall time and
// peak resident set.
func timedExec(bin string, args ...string) (time.Duration, int64, error) {
	return timedExecEnv(nil, bin, args...)
}

// timedExecEnv is timedExec with extra environment entries appended to
// the inherited environment.
func timedExecEnv(env []string, bin string, args ...string) (time.Duration, int64, error) {
	cmd := exec.Command(bin, args...)
	if len(env) > 0 {
		cmd.Env = append(os.Environ(), env...)
	}
	cmd.Stdout = os.Stderr // tool chatter goes to stderr; stdout is the report path line
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "benchrun: %s %s\n", filepath.Base(bin), strings.Join(args, " "))
	start := time.Now()
	err := cmd.Run()
	dur := time.Since(start)
	if err != nil {
		return dur, 0, err
	}
	return dur, childMaxRSS(cmd.ProcessState), nil
}

// childMaxRSS extracts a finished child's peak resident set in bytes
// (Linux rusage reports kilobytes).
func childMaxRSS(ps *os.ProcessState) int64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return ru.Maxrss * 1024
}

// selfMaxRSS reports this process's own peak resident set in bytes.
func selfMaxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}
