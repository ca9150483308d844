package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

// writeTinyTrace generates a small workload into a chunked trace file
// with the default chunk size: a single chunk.
func writeTinyTrace(t *testing.T) string {
	t.Helper()
	return writeTinyTraceChunks(t, 0)
}

// writeTinyChunkedTrace generates the same workload as writeTinyTrace
// with small chunks, so the per-chunk table has several rows.
func writeTinyChunkedTrace(t *testing.T) string {
	t.Helper()
	return writeTinyTraceChunks(t, 4096)
}

func writeTinyTraceChunks(t *testing.T, chunkBytes int) string {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.TargetLiveBytes = 50_000
	cfg.TotalAllocBytes = 150_000
	cfg.MeanTreeNodes = 30
	g, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.odbgcck")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cw := trace.NewChunkWriter(f, cfg.Fingerprint(), chunkBytes)
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

// writeNotATrace writes a file that is not a chunked trace.
func writeNotATrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := os.WriteFile(path, []byte(`{"k":"read","oid":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUsageErrorWithoutFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err == nil {
		t.Fatal("run with no trace file succeeded")
	} else if !strings.Contains(err.Error(), "usage:") {
		t.Fatalf("error %q is not a usage line", err)
	}
}

func TestInspectAndReplay(t *testing.T) {
	path := writeTinyTrace(t)

	var stdout, stderr bytes.Buffer
	if err := run([]string{path}, &stdout, &stderr); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if !strings.Contains(stdout.String(), "Creates") {
		t.Errorf("inspect output missing stats table:\n%s", stdout.String())
	}
}

// TestInspectChunked checks a many-chunk trace gets the global summary,
// the per-chunk table and the -chunk drill-down, and that the event
// totals agree with the single-chunk inspection of the same workload.
func TestInspectChunked(t *testing.T) {
	path := writeTinyChunkedTrace(t)

	var stdout, stderr bytes.Buffer
	if err := run([]string{path}, &stdout, &stderr); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	out := stdout.String()
	for _, want := range []string{"Trace: ", "Creates", "Chunks:", "fingerprint", "ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("chunked inspect output missing %q:\n%s", want, out)
		}
	}

	// The single-chunk file of the same workload must report identical
	// totals.
	oneOut := func() string {
		var b bytes.Buffer
		if err := run([]string{writeTinyTrace(t)}, &b, &stderr); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}()
	chunkTotals := out[:strings.Index(out, "Chunks:")]
	if got, want := tableBody(chunkTotals), tableBody(oneOut[:strings.Index(oneOut, "Chunks:")]); got != want {
		t.Errorf("many-chunk totals diverge from single-chunk totals:\n%s\nvs:\n%s", got, want)
	}

	stdout.Reset()
	if err := run([]string{"-chunk", "1", path}, &stdout, &stderr); err != nil {
		t.Fatalf("-chunk 1: %v", err)
	}
	for _, want := range []string{"Chunk 1 of", "Events", "CRC"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-chunk output missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestChunkFlagErrors covers the -chunk drill-down's error paths: out of
// range for a chunked trace, and any use on a file that is not one.
func TestChunkFlagErrors(t *testing.T) {
	chunked := writeTinyChunkedTrace(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-chunk", "100000", chunked}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "only") {
		t.Errorf("-chunk past the end: err = %v, want chunk-count error", err)
	}
	other := writeNotATrace(t)
	if err := run([]string{"-chunk", "0", other}, &stdout, &stderr); !errors.Is(err, trace.ErrBadChunkMagic) || !strings.Contains(err.Error(), other) {
		t.Errorf("-chunk on a non-trace file: err = %v, want ErrBadChunkMagic naming the path", err)
	}
}

// TestChunkRangeBoundsErrors covers the -chunk LO-HI edge cases: a
// reversed range, and ranges that start before but run past the last
// chunk — for both the drill-down and the -shards histogram, which share
// the parsed range but walk the file differently.
func TestChunkRangeBoundsErrors(t *testing.T) {
	chunked := writeTinyChunkedTrace(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"reversed", []string{"-chunk", "3-1", chunked}, "-chunk \"3-1\""},
		{"range past end", []string{"-chunk", "0-100000", chunked}, "runs past the last chunk"},
		{"range past end names flag", []string{"-chunk", "1-100000", chunked}, "-chunk 1-100000"},
		{"histogram lo past end", []string{"-shards", "2", "-chunk", "100000", chunked}, "only"},
		{"histogram hi past end", []string{"-shards", "2", "-chunk", "0-100000", chunked}, "-chunk 0-100000"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if err == nil {
			t.Errorf("%s: run(%v) succeeded, want error containing %q", tc.name, tc.args, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCorruptChunkNamed checks traceinfo surfaces a CRC failure naming
// the damaged chunk.
func TestCorruptChunkNamed(t *testing.T) {
	path := writeTinyChunkedTrace(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20 // mid-file payload byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	err = run([]string{path}, &stdout, &stderr)
	if err == nil {
		t.Fatal("corrupted trace inspected cleanly")
	}
	if !strings.Contains(err.Error(), "chunk ") || !strings.Contains(err.Error(), "crc") {
		t.Errorf("error %q does not name the damaged chunk's crc", err)
	}
}

// tableBody strips a stats table's title line so differently-titled
// tables with identical rows compare equal.
func tableBody(s string) string {
	if i := strings.Index(s, "\n"); i >= 0 {
		return s[i:]
	}
	return s
}

// TestChunkRangeDrillDown checks -chunk LO-HI prints a detail table per
// chunk in the range and stays consistent with the single-chunk form.
func TestChunkRangeDrillDown(t *testing.T) {
	path := writeTinyChunkedTrace(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-chunk", "0-2", path}, &stdout, &stderr); err != nil {
		t.Fatalf("-chunk 0-2: %v", err)
	}
	out := stdout.String()
	for _, want := range []string{"Chunk 0 of", "Chunk 1 of", "Chunk 2 of"} {
		if !strings.Contains(out, want) {
			t.Errorf("-chunk 0-2 output missing %q:\n%s", want, out)
		}
	}

	// The range form prints the same table for chunk 1 as the single form.
	var single bytes.Buffer
	if err := run([]string{"-chunk", "1", path}, &single, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, single.String()) {
		t.Errorf("-chunk 1 table not reproduced inside the -chunk 0-2 output:\n%s", single.String())
	}

	// A range running past the last chunk prints what exists, then
	// errors so the truncation cannot pass silently.
	stdout.Reset()
	err := run([]string{"-chunk", "1-100000", path}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "runs past the last chunk") {
		t.Errorf("-chunk 1-100000: err = %v, want range-past-end error", err)
	}
	if !strings.Contains(stdout.String(), "Chunk 1 of") {
		t.Errorf("over-long range printed nothing before erroring:\n%s", stdout.String())
	}

	// Malformed specs are named.
	for _, spec := range []string{"x", "3-1", "-2", "1-x"} {
		if err := run([]string{"-chunk", spec, path}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "-chunk") {
			t.Errorf("-chunk %s: err = %v, want named parse error", spec, err)
		}
	}
}

// TestShardHistogram checks -shards prints a per-chunk histogram whose
// shard columns sum to the chunk's events, plus the named error paths.
func TestShardHistogram(t *testing.T) {
	path := writeTinyChunkedTrace(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-shards", "4", path}, &stdout, &stderr); err != nil {
		t.Fatalf("-shards 4: %v", err)
	}
	out := stdout.String()
	for _, want := range []string{"Shard assignment: 4 shards (roundrobin)", "S0", "S3", "total", "event imbalance"} {
		if !strings.Contains(out, want) {
			t.Errorf("-shards output missing %q:\n%s", want, out)
		}
	}

	// Restricting to a chunk range keeps the totals row covering the
	// whole trace (routing scans from chunk 0 regardless).
	stdout.Reset()
	if err := run([]string{"-shards", "2", "-shard-assign", "range", "-chunk", "1-2", path}, &stdout, &stderr); err != nil {
		t.Fatalf("-shards with -chunk range: %v", err)
	}
	if !strings.Contains(stdout.String(), "(range)") {
		t.Errorf("-shard-assign range not echoed:\n%s", stdout.String())
	}

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative shards", []string{"-shards", "-1", path}, "-shards"},
		{"over cap", []string{"-shards", "65", path}, "cap"},
		{"assign without shards", []string{"-shard-assign", "range", path}, "-shard-assign"},
		{"bad assignment", []string{"-shards", "2", "-shard-assign", "zebra", path}, "zebra"},
		{"range past end", []string{"-shards", "2", "-chunk", "100000", path}, "only"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) err = %v, want error naming %s", tc.args, err, tc.want)
			}
		})
	}

	other := writeNotATrace(t)
	if err := run([]string{"-shards", "2", other}, &stdout, &stderr); !errors.Is(err, trace.ErrBadChunkMagic) || !strings.Contains(err.Error(), other) {
		t.Errorf("-shards on a non-trace file: err = %v, want ErrBadChunkMagic naming the path", err)
	}
}
