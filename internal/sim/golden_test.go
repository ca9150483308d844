package sim_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/sim"
	"odbgc/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// goldenWorkload is a reduced-scale workload (≈1/3 of the paper's base)
// so the determinism check stays fast enough for every `go test` run.
func goldenWorkload() workload.Config {
	wl := workload.DefaultConfig()
	wl.TargetLiveBytes = 1_500_000
	wl.TotalAllocBytes = 4_000_000
	wl.MinDeletions = 2000
	return wl
}

func goldenSim(policy string) sim.Config {
	cfg := sim.DefaultConfig(policy)
	cfg.Heap.PartitionPages = 24
	cfg.TriggerOverwrites = 150
	return cfg
}

// TestGoldenDeterminism pins the complete Result of a fixed-seed run for
// every paper policy against a checked-in golden file. Any change to the
// simulation outcome — however small — fails this test, so performance
// refactors of the heap, remembered sets, oracle, buffer, or collector can
// prove they changed no observable behavior.
func TestGoldenDeterminism(t *testing.T) {
	goldenPath := filepath.Join("testdata", "golden_results.json")

	got := make(map[string]sim.Result, len(core.PaperNames()))
	for _, policy := range core.PaperNames() {
		res, _, err := sim.RunWorkload(goldenSim(policy), goldenWorkload())
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if res.Samples != nil {
			t.Fatalf("%s: unexpected samples in golden run", policy)
		}
		got[policy] = res
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	var want map[string]sim.Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d policies, run produced %d", len(want), len(got))
	}
	for policy, w := range want {
		g, ok := got[policy]
		if !ok {
			t.Errorf("golden policy %s missing from run", policy)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: result diverged from golden file\n got: %+v\nwant: %+v", policy, g, w)
		}
	}
}

// TestGoldenCachedReplay pins the suite orchestration's central
// assumption: replaying one recorded workload trace (the shared-cache
// path) produces byte-identical Results to generating the workload live,
// for every paper policy. Combined with TestGoldenDeterminism this proves
// the trace cache changes no observable simulation behavior.
func TestGoldenCachedReplay(t *testing.T) {
	rt, err := workload.Record(goldenWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range core.PaperNames() {
		direct, _, err := sim.RunWorkload(goldenSim(policy), goldenWorkload())
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		replayed, err := sim.RunRecorded(goldenSim(policy), rt)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if !reflect.DeepEqual(direct, replayed) {
			t.Errorf("%s: cached-trace replay diverged from direct generation\n got: %+v\nwant: %+v",
				policy, replayed, direct)
		}
	}
}

// TestGoldenStreamedReplay pins the streaming pipeline's bit-identity
// claim: one fixed-seed trace replayed through both delivery paths — the
// in-memory Buffer and the chunked on-disk stream (with small chunks,
// so the prefetch pipeline crosses many chunk boundaries) — produces
// byte-identical Results under every paper policy. Combined with TestGoldenDeterminism, the streamed
// path is thereby pinned to the same golden results as a live run.
func TestGoldenStreamedReplay(t *testing.T) {
	rt, err := workload.Record(goldenWorkload())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.odbgcck")
	if err := rt.WriteChunked(path, 64<<10); err != nil {
		t.Fatal(err)
	}
	streamed, err := workload.OpenStreamed(path)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Stream.Chunks() < 4 {
		t.Fatalf("golden trace has %d chunks; want several to exercise the pipeline", streamed.Stream.Chunks())
	}
	// The file carries no build/churn boundary; copy it so warm-start
	// behavior matches the in-memory trace exactly.
	streamed.Config = rt.Config
	streamed.Stats = rt.Stats
	streamed.BuildEvents = rt.BuildEvents

	for _, policy := range core.PaperNames() {
		memRes, err := sim.RunRecorded(goldenSim(policy), rt)
		if err != nil {
			t.Fatalf("%s: in-memory replay: %v", policy, err)
		}
		streamedRes, err := sim.RunRecorded(goldenSim(policy), streamed)
		if err != nil {
			t.Fatalf("%s: streamed replay: %v", policy, err)
		}
		if !reflect.DeepEqual(streamedRes, memRes) {
			t.Errorf("%s: streamed chunked replay diverged from in-memory replay\n got: %+v\nwant: %+v",
				policy, streamedRes, memRes)
		}
	}
}
