package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/sim"
	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

// tiny is a workload small enough that a full single run finishes in
// well under a second while still triggering several collections. The
// partition must hold the default workload's 64 KB large objects, so
// 8 pages (8 KB each) is the floor.
var tiny = []string{
	"-live", "60000", "-alloc", "180000", "-trees", "40",
	"-partition-pages", "8", "-trigger", "40",
}

func TestFlagValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring the one-line error must contain
	}{
		{"seeds", []string{"-seeds", "0"}, "-seeds"},
		{"negative seeds", []string{"-seeds", "-3"}, "-seeds"},
		{"partition pages", []string{"-partition-pages", "-1"}, "-partition-pages"},
		{"buffer pages", []string{"-buffer-pages", "-2"}, "-buffer-pages"},
		{"trigger", []string{"-trigger", "-5"}, "-trigger"},
		{"live", []string{"-live", "-1"}, "-live"},
		{"alloc", []string{"-alloc", "-1"}, "-alloc"},
		{"trees", []string{"-trees", "-1"}, "-trees"},
		{"series with seeds", append([]string{"-seeds", "2", "-series", "x.csv"}, tiny...), "-series"},
		{"series with all", append([]string{"-policy", "all", "-series", "x.csv"}, tiny...), "-series"},
		{"inspect with seeds", append([]string{"-seeds", "2", "-inspect"}, tiny...), "-inspect"},
		{"inspect with all", append([]string{"-policy", "all", "-inspect"}, tiny...), "-inspect"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error naming %s", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error %q does not name %s", tc.args, err, tc.want)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("run(%v) error %q spans multiple lines", tc.args, err)
			}
		})
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-policy", "NoSuchPolicy"}, &stdout, &stderr); err == nil {
		t.Fatal("run with unknown policy succeeded")
	}
}

func TestSingleRunPrintsResult(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(append([]string{"-inspect"}, tiny...), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := stdout.String()
	for _, want := range []string{"Simulation result", "Collections", "Final partition occupancy"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.csv")
	var stdout, stderr bytes.Buffer
	if err := run(append([]string{"-series", path}, tiny...), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("series file: %v", err)
	}
	if !strings.HasPrefix(string(data), "events") {
		t.Errorf("series CSV header = %q, want it to start with \"events\"", firstLine(data))
	}
	if !strings.Contains(stdout.String(), "series ->") {
		t.Errorf("stdout missing series pointer line:\n%s", stdout.String())
	}
}

func TestAuditedSingleRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(append([]string{"-audit"}, tiny...), &stdout, &stderr); err != nil {
		t.Fatalf("audited run: %v", err)
	}
	if !strings.Contains(stdout.String(), "Simulation result") {
		t.Errorf("audited run produced no result table:\n%s", stdout.String())
	}
}

func TestMultiSeedAggregate(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(append([]string{"-seeds", "2"}, tiny...), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout.String(), "over 2 seeds") {
		t.Errorf("output missing aggregate header:\n%s", stdout.String())
	}
}

func TestCompareAllPolicies(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(append([]string{"-policy", "all"}, tiny...), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout.String(), "Policy comparison") {
		t.Errorf("output missing comparison table:\n%s", stdout.String())
	}
}

// TestWarmStartHonoured: -warm must reach the simulator in the
// single-run, -seeds and -policy all paths alike, so each one's output
// changes under it.
func TestWarmStartHonoured(t *testing.T) {
	for _, mode := range [][]string{nil, {"-seeds", "2"}, {"-policy", "all"}} {
		args := append(append([]string{}, mode...), tiny...)
		var cold, warm, stderr bytes.Buffer
		if err := run(args, &cold, &stderr); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		if err := run(append(args, "-warm"), &warm, &stderr); err != nil {
			t.Fatalf("run(%v -warm): %v", args, err)
		}
		if cold.String() == warm.String() {
			t.Errorf("run(%v): output is identical with and without -warm", args)
		}
	}
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}

// testTraceWorkload is the workload writeTestTrace records.
func testTraceWorkload() workload.Config {
	cfg := workload.DefaultConfig()
	cfg.TargetLiveBytes = 60_000
	cfg.TotalAllocBytes = 180_000
	cfg.MeanTreeNodes = 40
	return cfg
}

// writeTestTrace generates a small chunked trace file from
// testTraceWorkload and returns its path. 4 KB chunks make even this
// small trace cross many chunk boundaries.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	cfg := testTraceWorkload()
	path := filepath.Join(t.TempDir(), "t.odbgcck")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cw := trace.NewChunkWriter(f, cfg.Fingerprint(), 4096)
	if _, err := g.Run(cw); err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceReplayMatchesInMemory replays a trace file through gcsim and
// checks it reports the result table of the same workload replayed from
// memory.
func TestTraceReplayMatchesInMemory(t *testing.T) {
	path := writeTestTrace(t)
	var stdout, stderr bytes.Buffer
	args := []string{"-trace", path, "-partition-pages", "8", "-trigger", "40"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	rt, err := workload.Record(testTraceWorkload())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(core.NameUpdatedPointer)
	cfg.Heap.PartitionPages = 8
	cfg.TriggerOverwrites = 40
	res, err := sim.RunRecorded(cfg, rt)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	printResult(&want, res, workload.Stats{})
	if stdout.String() != want.String() {
		t.Errorf("file replay differs from in-memory replay:\nfile:\n%s\nmemory:\n%s", stdout.String(), want.String())
	}
}

// TestTraceFormatMismatchNamed pins the trace-file contract: a file that
// is not a chunked trace is a named one-line error, not a mis-decode.
func TestTraceFormatMismatchNamed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := os.WriteFile(path, []byte(`{"k":"read","oid":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-trace", path}, {"-trace", path, "-shards", "2"}} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if !errors.Is(err, trace.ErrBadChunkMagic) {
			t.Fatalf("run(%v): err = %v, want ErrBadChunkMagic", args, err)
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("error %q does not name %s", err, path)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("error %q spans multiple lines", err)
		}
	}
}

// TestTraceFlagConflictsNamed checks workload-shaping flags are rejected
// by name in replay mode.
func TestTraceFlagConflictsNamed(t *testing.T) {
	path := writeTestTrace(t)
	cases := [][]string{
		{"-trace", path, "-seeds", "2"},
		{"-trace", path, "-live", "1000"},
		{"-trace", path, "-alloc", "5000"},
		{"-trace", path, "-dense", "0.1"},
		{"-trace", path, "-trees", "10"},
		{"-trace", path, "-warm"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil {
			t.Errorf("run(%v) succeeded, want conflict error", args)
			continue
		}
		if !strings.Contains(err.Error(), args[2]) {
			t.Errorf("run(%v) error %q does not name %s", args, err, args[2])
		}
	}
}

// writeCrossTrace writes a small chunked trace whose dense edges cross
// trees, so a sharded replay has real cross-shard traffic.
func writeCrossTrace(t *testing.T) string {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.TargetLiveBytes = 60_000
	cfg.TotalAllocBytes = 180_000
	cfg.MeanTreeNodes = 40
	cfg.CrossTreeFraction = 0.3
	path := filepath.Join(t.TempDir(), "cross.odbgc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cw := trace.NewChunkWriter(f, cfg.Fingerprint(), 4096)
	if _, err := g.Run(cw); err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestShardFlagValidation pins every named rejection of the sharded
// replay flags as a one-line error.
func TestShardFlagValidation(t *testing.T) {
	path := writeTestTrace(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative shards", []string{"-shards", "-1"}, "-shards"},
		{"over cap", []string{"-trace", path, "-shards", "65"}, "cap"},
		{"without trace", []string{"-shards", "2"}, "-shards requires -trace"},
		{"assign without shards", []string{"-trace", path, "-shard-assign", "range"}, "-shard-assign"},
		{"epoch without shards", []string{"-trace", path, "-epoch-events", "100"}, "-epoch-events"},
		{"negative epoch", []string{"-trace", path, "-shards", "2", "-epoch-events", "-1"}, "-epoch-events"},
		{"bad assignment", []string{"-trace", path, "-shards", "2", "-shard-assign", "zebra"}, "zebra"},
		{"series conflict", []string{"-trace", path, "-shards", "2", "-series", "x.csv"}, "-series"},
		{"inspect conflict", []string{"-trace", path, "-shards", "2", "-inspect"}, "-inspect"},
		{"cross in replay", []string{"-trace", path, "-cross", "0.5"}, "-cross"},
		{"cross out of range", []string{"-cross", "1.5"}, "-cross"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error naming %s", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error %q does not name %s", tc.args, err, tc.want)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("run(%v) error %q spans multiple lines", tc.args, err)
			}
		})
	}
}

// stripTimingLines drops the wall-clock-derived lines from a sharded
// result table, leaving only the deterministic fields.
func stripTimingLines(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "scaling") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestShardedReplayDeterministic replays one cross-tree trace through
// the sharded engine twice and demands identical output (modulo the
// wall-clock scaling line): the exchange between epochs makes the result
// independent of goroutine interleaving.
func TestShardedReplayDeterministic(t *testing.T) {
	path := writeCrossTrace(t)
	outs := make([]string, 2)
	for i := range outs {
		var stdout, stderr bytes.Buffer
		args := []string{"-trace", path, "-shards", "4", "-epoch-events", "2048", "-partition-pages", "8", "-trigger", "40"}
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("sharded replay: %v", err)
		}
		outs[i] = stripTimingLines(stdout.String())
	}
	if outs[0] != outs[1] {
		t.Errorf("two sharded replays of the same trace diverge:\n%s\nvs\n%s", outs[0], outs[1])
	}
	for _, want := range []string{"Sharded run", "Per-shard results", "Foreign writes", "Remset deltas exchanged"} {
		if !strings.Contains(outs[0], want) {
			t.Errorf("sharded output missing %q:\n%s", want, outs[0])
		}
	}
}

// TestShardedAuditMatchesPlain replays a cross-tree trace through four
// shards with and without -audit, which audits every shard's heap after
// each of its collections: the audit observes and never changes a
// result, so both print the same bytes (modulo the wall-clock scaling
// line).
func TestShardedAuditMatchesPlain(t *testing.T) {
	path := writeCrossTrace(t)
	outs := make([]string, 2)
	for i, audit := range []string{"-audit=false", "-audit"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-trace", path, "-shards", "4", "-epoch-events", "2048", "-partition-pages", "8", "-trigger", "40", audit}
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("sharded replay %s: %v", audit, err)
		}
		outs[i] = stripTimingLines(stdout.String())
	}
	if outs[0] != outs[1] {
		t.Errorf("audited sharded replay differs from the plain one:\n%s\nvs\n%s", outs[1], outs[0])
	}
	if m := regexp.MustCompile(`(?m)^Collections +(\d+)$`).FindStringSubmatch(outs[0]); m == nil || m[1] == "0" {
		t.Errorf("no shard collected, so nothing was audited:\n%s", outs[0])
	}
}

// TestShardedReplayRangeAssignment exercises the range assignment
// through the sharded path.
func TestShardedReplayRangeAssignment(t *testing.T) {
	path := writeTestTrace(t)
	var stdout, stderr bytes.Buffer
	args := []string{"-trace", path, "-shards", "2", "-shard-assign", "range", "-partition-pages", "8", "-trigger", "40"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("sharded replay: %v", err)
	}
	if !strings.Contains(stdout.String(), "(range)") {
		t.Errorf("output does not echo the range assignment:\n%s", stdout.String())
	}
}

// TestShardedScalingNeedsACPUPerShard runs two shards on one CPU. Each
// parallel drain's busy time then includes waiting for the CPU, so the
// scaling row would report a speedup that did not happen.
func TestShardedScalingNeedsACPUPerShard(t *testing.T) {
	path := writeCrossTrace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var stdout, stderr bytes.Buffer
	args := []string{"-trace", path, "-shards", "2", "-partition-pages", "8", "-trigger", "40"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("sharded replay: %v", err)
	}
	if strings.Contains(stdout.String(), "Shard-local scaling") {
		t.Errorf("scaling row printed with one CPU for two shards:\n%s", stdout.String())
	}
}
