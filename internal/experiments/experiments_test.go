package experiments

import (
	"strings"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/record"
	"odbgc/internal/sim"
	"odbgc/internal/workload"
)

// scaledBase shrinks the base experiment so the harness logic can be
// tested quickly.
func scaledBase() (workload.Config, func(string) sim.Config) {
	wl := BaseWorkload()
	wl.TargetLiveBytes = 200_000
	wl.TotalAllocBytes = 600_000
	wl.MinDeletions = 400
	wl.MeanTreeNodes = 120
	wl.LargeObjectSize = 8192
	wl.LargeEvery = 300
	mkSim := func(policy string) sim.Config {
		cfg := BaseSim(policy)
		cfg.Heap.PartitionPages = 6
		cfg.TriggerOverwrites = 60
		return cfg
	}
	return wl, mkSim
}

func TestRunPoliciesAndTables(t *testing.T) {
	res, err := runSuite(SuiteOptions{Seeds: 2, Tables: true}, scaledSuite(), nil)
	if err != nil {
		t.Fatal(err)
	}
	run := res.Base
	if run.Seeds != 2 || len(run.Policies) != 6 {
		t.Fatalf("run = %+v", run)
	}
	for _, policy := range run.Policies {
		if len(run.Results[policy]) != 2 {
			t.Fatalf("%s has %d results", policy, len(run.Results[policy]))
		}
	}

	for name, table := range map[string]string{
		"table2": run.Table2().String(),
		"table3": run.Table3().String(),
		"table4": run.Table4().String(),
	} {
		for _, policy := range run.Policies {
			if !strings.Contains(table, policy) {
				t.Errorf("%s missing row for %s:\n%s", name, policy, table)
			}
		}
	}
	if !strings.Contains(run.Table4().String(), "Actual Garbage") {
		t.Error("table4 missing Actual Garbage row")
	}
}

func TestRelativeIsPairedBySeed(t *testing.T) {
	res, err := runSuite(SuiteOptions{Seeds: 3, Tables: true}, scaledSuite(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rel := res.Base.relative(core.NameMostGarbage, func(r sim.Result) float64 { return float64(r.TotalIOs) })
	if rel.Mean != 1 || rel.StdDev != 0 {
		t.Fatalf("self-relative = %+v, want exactly 1 ± 0", rel)
	}
}

func TestTable5Scaled(t *testing.T) {
	// The scaled suite sweeps two connectivities, 1.005 and 1.167.
	res, err := runSuite(SuiteOptions{Seeds: 1, Table5: true}, scaledSuite(), nil)
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table5.Table().String()
	if !strings.Contains(table, "C = 1.005") || !strings.Contains(table, "C = 1.167") {
		t.Fatalf("table headers wrong:\n%s", table)
	}
	if !strings.Contains(table, core.NameUpdatedPointer) {
		t.Fatalf("missing policy row:\n%s", table)
	}
}

func TestFigure6Helpers(t *testing.T) {
	for _, p := range Figure6Points {
		wl := Figure6Workload(p)
		if err := wl.Validate(); err != nil {
			t.Errorf("%d MB workload invalid: %v", p.MaxAllocMB, err)
		}
		cfg := Figure6Sim(core.NameRandom, p)
		if cfg.Heap.PartitionPages != p.PartitionPages {
			t.Errorf("%d MB: partition pages %d", p.MaxAllocMB, cfg.Heap.PartitionPages)
		}
		if cfg.TriggerOverwrites < 150 || cfg.TriggerOverwrites > 800 {
			t.Errorf("%d MB: trigger %d outside clamp", p.MaxAllocMB, cfg.TriggerOverwrites)
		}
	}
}

func TestFigure6ResultRendering(t *testing.T) {
	// Two seeds per cell: each cell is the mean of its runs' maximum
	// storage, converted to MB.
	const mb = 1 << 20
	var runs []record.FigureRun
	for _, p := range []int64{4, 8} {
		for seed := int64(0); seed < 2; seed++ {
			runs = append(runs,
				record.FigureRun{Policy: core.NameNoCollection, Point: p,
					Result: sim.Result{MaxOccupiedBytes: (p + seed) * mb}},
				record.FigureRun{Policy: core.NameMostGarbage, Point: p,
					Result: sim.Result{MaxOccupiedBytes: p * mb / 2}})
		}
	}
	s, err := record.Figure6(runs)
	if err != nil {
		t.Fatal(err)
	}
	table := Figure6Table(s).String()
	if !strings.Contains(table, "4 MB") || !strings.Contains(table, "8.5") {
		t.Fatalf("table:\n%s", table)
	}
	if s.Len() != 2 || len(s.Names) != 2 {
		t.Fatalf("series = %+v", s)
	}
	if s.Y[1][0] != 2 || s.Y[0][1] != 8.5 {
		t.Fatalf("series values wrong: %+v", s.Y)
	}
}

func TestFiguresScaledEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	// Run two policies of a scaled figure config with sampling and
	// assert their sample grids align, as the figure builder assumes.
	wl, mkSim := scaledBase()
	var lens []int
	for _, policy := range []string{core.NameNoCollection, core.NameMostGarbage} {
		cfg := mkSim(policy)
		cfg.SampleEvery = 5_000
		res, _, err := sim.RunWorkload(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Samples) == 0 {
			t.Fatalf("%s: no samples", policy)
		}
		lens = append(lens, len(res.Samples))
	}
	if lens[0] != lens[1] {
		t.Fatalf("sample grids diverge: %v (same trace must sample identically)", lens)
	}
}
