package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"odbgc/internal/sim"
	"odbgc/internal/workload"
)

// scaledSuite shrinks every family far enough that the whole suite runs
// in a few seconds while still exercising each submit path.
func scaledSuite() suiteConfigs {
	wl, mkSim := scaledBase()
	fig45Sim := func(policy string) sim.Config {
		cfg := mkSim(policy)
		cfg.SampleEvery = 5_000
		return cfg
	}
	points := []Figure6Point{{1, 6}, {2, 12}}
	mkWL := func(p Figure6Point) workload.Config {
		w := workload.DefaultConfig()
		w.TotalAllocBytes = int64(p.MaxAllocMB) << 20
		w.TargetLiveBytes = w.TotalAllocBytes * 2 / 5
		w.MinDeletions = w.TotalAllocBytes / 2300
		w.MeanTreeNodes = 120
		w.LargeObjectSize = 8192
		w.LargeEvery = 300
		return w
	}
	mkFig6Sim := func(policy string, p Figure6Point) sim.Config {
		cfg := sim.DefaultConfig(policy)
		cfg.Heap.PartitionPages = p.PartitionPages
		cfg.TriggerOverwrites = 60
		return cfg
	}
	return suiteConfigs{
		baseWL:     wl,
		baseSim:    mkSim,
		fig45WL:    wl,
		fig45Sim:   fig45Sim,
		fig6Points: points,
		fig6WL:     mkWL,
		fig6Sim:    mkFig6Sim,
		triggers:   []int64{60, 90},
		partitions: []int{24},
		fractions:  []float64{0.005, 0.167},
	}
}

// allSuite returns options with every family enabled.
func allSuite(seeds int) SuiteOptions {
	return SuiteOptions{
		Seeds:  seeds,
		Tables: true, Table5: true, Figures45: true,
		Figure6: true, Sensitivity: true, Ablations: true,
	}
}

// TestSuiteParallelMatchesSerial runs the scaled suite twice — serial
// with the cache disabled (every job generates its workload live) and
// parallel with the shared cache — and requires identical results. This
// is the suite-level bit-identity guarantee; under -race it also
// exercises the scheduler and cache concurrency.
func TestSuiteParallelMatchesSerial(t *testing.T) {
	cfgs := scaledSuite()
	opts := allSuite(2)

	serialOpts := opts
	serialOpts.Workers = 1
	serialOpts.TraceCacheBytes = -1 // disabled
	serial, err := runSuite(serialOpts, cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}

	parOpts := opts
	parOpts.Workers = 4
	parallel, err := runSuite(parOpts, cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}

	if parallel.Cache.Misses == 0 || parallel.Cache.Hits == 0 {
		t.Fatalf("cache unused: %+v", parallel.Cache)
	}
	// Each distinct workload config should be generated exactly once:
	// misses == distinct (Config) keys, everything else hits.
	// Base workload: 2 seeds shared by tables+sensitivity+ablations AND
	// the scaled fig45 (which reuses base seed 0); table5: 2 fractions × 2
	// seeds; fig6: 2 points × 2 seeds.
	if want := int64(2 + 4 + 4); parallel.Cache.Misses != want {
		t.Errorf("cache misses = %d, want %d (one per distinct workload)", parallel.Cache.Misses, want)
	}

	serial.Cache, parallel.Cache = workload.CacheStats{}, workload.CacheStats{}
	if !reflect.DeepEqual(serial, parallel) {
		for name, pair := range map[string][2]any{
			"base":        {serial.Base, parallel.Base},
			"table5":      {serial.Table5, parallel.Table5},
			"figures":     {serial.Figures, parallel.Figures},
			"figure6":     {serial.Figure6, parallel.Figure6},
			"sensitivity": {serial.Sensitivity, parallel.Sensitivity},
			"ablations":   {serial.Ablations, parallel.Ablations},
		} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Errorf("%s differs between serial and parallel runs", name)
			}
		}
		t.Fatal("parallel suite is not bit-identical to serial suite")
	}
}

// TestTable5ReusesBaseTraces runs the scaled Tables and Table 5 families
// with a sweep that includes the base workload's dense-edge fraction.
// That column must replay the Tables traces, so the suite generates
// exactly one trace per distinct workload.
func TestTable5ReusesBaseTraces(t *testing.T) {
	cfgs := scaledSuite()
	cfgs.fractions = []float64{0.005, cfgs.baseWL.DenseEdgeFraction}
	res, err := runSuite(SuiteOptions{Seeds: 2, Tables: true, Table5: true}, cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The base workload and the 0.005 sweep point, 2 seeds each.
	if want := int64(2 * 2); res.Cache.Misses != want {
		t.Errorf("traces generated = %d, want %d (one per distinct workload)", res.Cache.Misses, want)
	}
}

// TestSuiteFamilySelection checks that disabled families stay nil and
// enabled ones are populated.
func TestSuiteFamilySelection(t *testing.T) {
	cfgs := scaledSuite()
	res, err := runSuite(SuiteOptions{Seeds: 1, Tables: true}, cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Base == nil {
		t.Fatal("tables requested but Base is nil")
	}
	if res.Table5 != nil || res.Figures != nil || res.Figure6 != nil ||
		res.Sensitivity != nil || res.Ablations != nil {
		t.Fatalf("unrequested families populated: %+v", res)
	}
}

// TestSuiteProgressLines checks the shared scheduler tags every progress
// line with its family label and counts monotonically to the total.
func TestSuiteProgressLines(t *testing.T) {
	cfgs := scaledSuite()
	var lines []string
	progress := Progress(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	res, err := runSuite(SuiteOptions{Seeds: 1, Tables: true, Ablations: true, Workers: 2}, cfgs, progress)
	if err != nil {
		t.Fatal(err)
	}
	if res.Base == nil || res.Ablations == nil {
		t.Fatal("missing results")
	}
	// 6 policies × 1 seed + 7 ablation variants × 1 seed = 13 jobs.
	if len(lines) != 13 {
		t.Fatalf("progress lines = %d, want 13:\n%v", len(lines), lines)
	}
	// The total counts jobs submitted so far; completions can overlap
	// submission, so it grows monotonically and ends at 13.
	var sawTables, sawAblation bool
	lastTotal := 0
	for _, line := range lines {
		var done, total int
		if _, err := fmt.Sscanf(line, "[%d/%d]", &done, &total); err != nil {
			t.Fatalf("line %q not tagged with [done/total]", line)
		}
		if done > total || total > 13 || total < lastTotal {
			t.Errorf("line %q: inconsistent counters", line)
		}
		lastTotal = total
		if strings.Contains(line, "tables/") {
			sawTables = true
		}
		if strings.Contains(line, "ablation/") {
			sawAblation = true
		}
	}
	if lastTotal != 13 {
		t.Errorf("final total = %d, want 13", lastTotal)
	}
	if !sawTables || !sawAblation {
		t.Fatalf("family tags missing from progress lines:\n%v", lines)
	}
}
