package sim

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/workload"
)

// TestSchedulerMixedSuiteMatchesSerial flattens a small mixed suite —
// several policies, seeds, and two workload shapes — through a parallel
// scheduler with a shared trace cache and checks every result is
// bit-identical to a direct serial RunWorkload. Run under -race (ci.sh),
// this is also the scheduler/trace-cache data-race smoke test.
func TestSchedulerMixedSuiteMatchesSerial(t *testing.T) {
	type cell struct {
		sim Config
		wl  workload.Config
	}
	var cells []cell
	wlA := smallWorkload()
	wlB := smallWorkload()
	wlB.DenseEdgeFraction = 0.167
	for _, wl := range []workload.Config{wlA, wlB} {
		for _, policy := range []string{core.NameUpdatedPointer, core.NameRandom, core.NameMostGarbage} {
			for seed := int64(0); seed < 3; seed++ {
				sc := smallSim(policy)
				sc.Seed += seed
				w := wl
				w.Seed += seed
				cells = append(cells, cell{sc, w})
			}
		}
	}

	want := make([]Result, len(cells))
	for i, c := range cells {
		res, _, err := RunWorkload(c.sim, c.wl)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	cache := workload.NewTraceCache(0)
	s := NewScheduler(4, cache)
	defer s.Close()
	var mu sync.Mutex
	var lines []string
	s.SetNotify(func(done, total int64, label string) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf("[%d/%d] %s", done, total, label))
	})
	got := make([]Result, len(cells))
	for i, c := range cells {
		s.Submit(Job{Label: fmt.Sprintf("cell %d", i), Sim: c.sim, WL: c.wl, Out: &got[i]})
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("cell %d diverged from serial run:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if len(lines) != len(cells) {
		t.Errorf("notify saw %d completions, want %d", len(lines), len(cells))
	}
	st := cache.Stats()
	// 2 workloads × 3 seeds distinct traces, each shared by 3 policies.
	if st.Misses != 6 || st.Hits != int64(len(cells))-6 {
		t.Errorf("cache stats = %+v, want 6 misses / %d hits", st, len(cells)-6)
	}
}

func TestSchedulerErrorReportsEarliestJob(t *testing.T) {
	s := NewScheduler(2, nil)
	defer s.Close()
	bad := smallSim(core.NameUpdatedPointer)
	bad.TriggerOverwrites = 0 // fails validation
	out := make([]Result, 3)
	s.Submit(Job{Label: "ok", Sim: smallSim(core.NameRandom), WL: smallWorkload(), Out: &out[0]})
	s.Submit(Job{Label: "bad one", Sim: bad, WL: smallWorkload(), Out: &out[1]})
	s.Submit(Job{Label: "bad two", Sim: bad, WL: smallWorkload(), Out: &out[2]})
	err := s.Wait()
	if err == nil {
		t.Fatal("expected error")
	}
	if want := "bad one"; !containsStr(err.Error(), want) {
		t.Fatalf("error %q does not name the earliest failed job %q", err, want)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestPolicyFactoryNilRejected(t *testing.T) {
	cfg := smallSim("custom")
	cfg.PolicyFactory = func() core.Policy { return nil }
	_, err := New(cfg)
	if err == nil {
		t.Fatal("New accepted a PolicyFactory that returned nil")
	}
	if !containsStr(err.Error(), "PolicyFactory") {
		t.Fatalf("error %q does not name PolicyFactory", err)
	}
}

// TestRunSeedsPolicyFactoryPerRun: RunSeeds builds one policy per run
// from the factory, and its parallel results equal a serial loop of
// RunWorkload over the paper's seed rule (workload seed base+i,
// simulator seed base+1000+i).
func TestRunSeedsPolicyFactoryPerRun(t *testing.T) {
	const n = 4
	var calls atomic.Int64
	cfg := smallSim("custom")
	cfg.PolicyFactory = func() core.Policy {
		calls.Add(1)
		return core.NewUpdatedPointer()
	}
	got, err := RunSeeds(cfg, smallWorkload(), n)
	if err != nil {
		t.Fatal(err)
	}
	if c := calls.Load(); c != n {
		t.Fatalf("factory called %d times for %d runs", c, n)
	}
	for i := 0; i < n; i++ {
		sc, wl := cfg, smallWorkload()
		sc.Seed += 1000 + int64(i)
		wl.Seed += int64(i)
		want, _, err := RunWorkload(sc, wl)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("seed %d: RunSeeds diverged from serial RunWorkload:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
}

func TestRunRecordedWarmStartMatchesLive(t *testing.T) {
	wl := smallWorkload()
	rt, err := workload.Record(wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range []bool{false, true} {
		cfg := smallSim(core.NameUpdatedPointer)
		cfg.WarmStart = warm
		live, _, err := RunWorkload(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := RunRecorded(cfg, rt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, replayed) {
			t.Errorf("warm=%v: recorded replay diverged:\n got %+v\nwant %+v", warm, replayed, live)
		}
	}
}
