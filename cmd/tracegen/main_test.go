package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

func TestFlagValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing output", nil, "-o"},
		{"negative live", []string{"-o", "x.bin", "-live", "-1"}, "-live"},
		{"negative alloc", []string{"-o", "x.bin", "-alloc", "-1"}, "-alloc"},
		{"negative trees", []string{"-o", "x.bin", "-trees", "-1"}, "-trees"},
		{"negative chunk bytes", []string{"-o", "x.bin", "-chunk-bytes", "-1"}, "-chunk-bytes"},
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
		})
	}
}

// TestGenerateAndInspect writes a tiny trace through tracegen, asserting
// the summary line renders and the file opens as a chunked trace.
func TestGenerateAndInspect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.odbgcck")
	var stdout, stderr bytes.Buffer
	args := []string{"-o", path, "-live", "50000", "-alloc", "150000", "-trees", "30"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout.String(), "events") {
		t.Errorf("summary line missing:\n%s", stdout.String())
	}
	if _, err := trace.OpenChunkStream(path); err != nil {
		t.Fatal(err)
	}
}

// TestFailedRunRemovesFile hits the event cap mid-generation, after
// several chunks have reached the disk. Those chunks would pass every CRC
// check and replay as a complete trace, so the file must be gone.
func TestFailedRunRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.odbgcck")
	var stdout, stderr bytes.Buffer
	args := []string{"-o", path, "-max-events", "200000", "-chunk-bytes", "65536"}
	err := run(args, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "event cap 200000") {
		t.Fatalf("run(%v) = %v, want the event-cap error", args, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed run left %s behind (stat: %v)", path, err)
	}
}

// TestChunkedOutputStreamsIdentically pins tracegen's file to the
// in-memory recording of the same workload: whatever the chunk size, the
// file replays the identical event stream.
func TestChunkedOutputStreamsIdentically(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.TargetLiveBytes = 50_000
	cfg.TotalAllocBytes = 150_000
	cfg.MeanTreeNodes = 30
	rt, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []trace.Event
	if err := rt.Replay(sinkFunc(func(e trace.Event) { want = append(want, e) }), nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	args := []string{"-live", "50000", "-alloc", "150000", "-trees", "30"}
	for _, chunkBytes := range []string{"0", "4096"} {
		path := filepath.Join(dir, "t.ck"+chunkBytes)
		var stdout, stderr bytes.Buffer
		if err := run(append([]string{"-o", path, "-chunk-bytes", chunkBytes}, args...), &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		s, err := trace.OpenChunkStream(path)
		if err != nil {
			t.Fatal(err)
		}
		var got []trace.Event
		if err := s.Replay(sinkFunc(func(e trace.Event) { got = append(got, e) })); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk-bytes %s: file diverges from the in-memory recording (%d vs %d events)",
				chunkBytes, len(got), len(want))
		}
	}
}

type sinkFunc func(trace.Event)

func (f sinkFunc) Emit(e trace.Event) error {
	f(e)
	return nil
}
