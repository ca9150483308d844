package experiments

import (
	"strings"
	"testing"

	"odbgc/internal/core"
)

func TestSensitivityTables(t *testing.T) {
	// Render from synthetic data; the full sweep runs via cmd/experiments.
	res := &SensitivityResult{
		Policies:   SensitivityPolicies,
		Triggers:   TriggerIntervals,
		Partitions: PartitionSizes,
		TriggerFraction: map[string][]float64{
			core.NameRandom:         {40, 41, 42, 43},
			core.NameUpdatedPointer: {55, 56, 57, 58},
			core.NameMostGarbage:    {60, 61, 62, 63},
		},
		PartitionFraction: map[string][]float64{
			core.NameRandom:         {39, 40, 41},
			core.NameUpdatedPointer: {54, 57, 59},
			core.NameMostGarbage:    {59, 62, 64},
		},
	}
	trig := res.TriggerTable().String()
	if !strings.Contains(trig, "every 150") || !strings.Contains(trig, "58.0") {
		t.Fatalf("trigger table:\n%s", trig)
	}
	part := res.PartitionTable().String()
	if !strings.Contains(part, "24 pages") || !strings.Contains(part, "64.0") {
		t.Fatalf("partition table:\n%s", part)
	}
}

func TestRunSensitivityScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	// Narrow the sweeps to one value each and one policy, over the
	// scaled suite's workload.
	origPol := SensitivityPolicies
	SensitivityPolicies = []string{core.NameUpdatedPointer}
	defer func() { SensitivityPolicies = origPol }()
	cfgs := scaledSuite()
	cfgs.triggers = []int64{60}
	cfgs.partitions = []int{24}
	suite, err := runSuite(SuiteOptions{Seeds: 1, Sensitivity: true}, cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := suite.Sensitivity
	if len(res.TriggerFraction[core.NameUpdatedPointer]) != 1 {
		t.Fatalf("trigger sweep rows: %+v", res.TriggerFraction)
	}
	if len(res.PartitionFraction[core.NameUpdatedPointer]) != 1 {
		t.Fatalf("partition sweep rows: %+v", res.PartitionFraction)
	}
	if res.TriggerFraction[core.NameUpdatedPointer][0] <= 0 {
		t.Fatal("degenerate sweep result")
	}
	// The tables label the values the sweep ran, not the defaults.
	if trig := res.TriggerTable().String(); !strings.Contains(trig, "every 60") || strings.Contains(trig, "every 150") {
		t.Errorf("trigger table does not label the 60-overwrite sweep:\n%s", trig)
	}
	if part := res.PartitionTable().String(); !strings.Contains(part, "24 pages") || strings.Contains(part, "48 pages") {
		t.Errorf("partition table does not label the 24-page sweep:\n%s", part)
	}
}
