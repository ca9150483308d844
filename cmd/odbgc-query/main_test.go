package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odbgc/internal/record"
	"odbgc/internal/sim"
)

// writeTestRecording builds a small recording file with two finished
// runs of different policies and returns its path.
func writeTestRecording(t *testing.T) string {
	t.Helper()
	rec := record.NewRecorder()

	r0 := rec.NewRun(record.MetaFromLabel("tables/UpdatedPointer/seed 0", "UpdatedPointer"))
	hooks := r0.Hooks()
	hooks.Activation(sim.ActivationRecord{
		Seq: 1, Events: 100, Cause: sim.CauseOverwrite, Collected: true,
		Victim: 2, Dest: 5, GarbageBytes: 4096, GarbageObjects: 3,
	})
	hooks.Activation(sim.ActivationRecord{
		Seq: 2, Events: 250, Cause: sim.CauseOverwrite, Collected: true,
		Victim: 2, Dest: 6, GarbageBytes: 2048, GarbageObjects: 1,
	})
	hooks.Activation(sim.ActivationRecord{
		Seq: 3, Events: 400, Cause: sim.CauseAllocation, Collected: true,
		Victim: 1, Dest: 4, GarbageBytes: 1024, GarbageObjects: 1,
	})
	r0.Finish(sim.Result{Policy: "UpdatedPointer", Events: 500, TotalIOs: 72, Collections: 3,
		Samples: []sim.SampleRecord{{Seq: 1, Events: 200, OccupiedBytes: 1 << 20, LiveBytes: 1 << 19}}})

	r1 := rec.NewRun(record.MetaFromLabel("tables/Random/seed 0", "Random"))
	r1.Hooks().Activation(sim.ActivationRecord{
		Seq: 1, Events: 150, Cause: sim.CauseOverwrite, Collected: true,
		Victim: 0, Dest: 3, GarbageBytes: 512, GarbageObjects: 1,
	})
	r1.Finish(sim.Result{Policy: "Random", Events: 500, TotalIOs: 50, Collections: 1})

	path := filepath.Join(t.TempDir(), "run.odbgcrec")
	if err := rec.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

// runQuery drives run() and returns stdout, failing the test on error.
func runQuery(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
	}
	return stdout.String()
}

func TestWhereGroupAgg(t *testing.T) {
	path := writeTestRecording(t)
	out := runQuery(t, "-where", "policy=UpdatedPointer", "-group", "partition",
		"-agg", "count,sum:garbage_bytes", "-csv", path)
	want := "partition,count,sum:garbage_bytes\n1,1,1024\n2,2,6144\n"
	if out != want {
		t.Errorf("query CSV:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestAlignedTableOutput(t *testing.T) {
	path := writeTestRecording(t)
	out := runQuery(t, "-table", "runs", path)
	if !strings.Contains(out, "UpdatedPointer") || !strings.Contains(out, "Random") {
		t.Errorf("runs table missing policies:\n%s", out)
	}
	if !strings.Contains(out, "(2 rows)") {
		t.Errorf("missing row count footer:\n%s", out)
	}
}

func TestRowListingLimit(t *testing.T) {
	path := writeTestRecording(t)
	out := runQuery(t, "-table", "activations", "-csv", "-limit", "2", path)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Errorf("-limit 2: got %d lines:\n%s", len(lines), out)
	}
}

func TestInfo(t *testing.T) {
	path := writeTestRecording(t)
	out := runQuery(t, "-info", path)
	if !strings.Contains(out, "2 runs, 4 activations, 1 samples") {
		t.Errorf("-info summary wrong:\n%s", out)
	}
	if !strings.Contains(out, "tables/UpdatedPointer/seed 0") {
		t.Errorf("-info missing run label:\n%s", out)
	}
}

func TestHTMLReport(t *testing.T) {
	path := writeTestRecording(t)
	htmlPath := filepath.Join(t.TempDir(), "report.html")
	runQuery(t, "-html", htmlPath, path)
	data, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatalf("reading report: %v", err)
	}
	if !strings.Contains(string(data), "<html") {
		t.Errorf("report is not HTML:\n%.200s", data)
	}
}

func TestNamedErrors(t *testing.T) {
	path := writeTestRecording(t)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-where", "nonsense", path}, `-where "nonsense"`},
		{[]string{"-agg", "median:garbage_bytes", path}, "median"},
		{[]string{"-agg", "garbage_bytes", path}, `-agg "garbage_bytes"`},
		{[]string{"-limit", "-3", path}, "-limit -3"},
		{[]string{"-table", "nope", path}, "nope"},
		{[]string{"-where", "bogus_col=1", path}, "bogus_col"},
		{[]string{path, "extra"}, "exactly one recording file"},
		{[]string{}, "exactly one recording file"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if err == nil {
			t.Errorf("run(%v): want error containing %q, got nil", tc.args, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): error %q does not mention %q", tc.args, err, tc.want)
		}
	}
}

func TestCorruptFileError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.odbgcrec")
	if err := os.WriteFile(path, []byte("not a recording"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{path}, &stdout, &stderr); err == nil {
		t.Error("corrupt file: want error, got nil")
	}
}

func TestFiguresRequiresFigureRuns(t *testing.T) {
	path := writeTestRecording(t) // only "tables" family runs
	var stdout, stderr bytes.Buffer
	err := run([]string{"-figures", t.TempDir(), path}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-figures") {
		t.Errorf("want named -figures error, got %v", err)
	}
}
