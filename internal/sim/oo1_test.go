package sim

import (
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/workload"
)

func smallOO1() workload.OO1Config {
	cfg := workload.DefaultOO1Config()
	cfg.Parts = 800
	cfg.RefZone = 20
	cfg.LookupBatch = 20
	cfg.TraverseCap = 80
	cfg.MinDeletions = 400
	cfg.TotalOps = 150
	return cfg
}

func runOO1(t *testing.T, policy string, seed int64) Result {
	t.Helper()
	wl := smallOO1()
	wl.Seed = seed
	g, err := workload.NewOO1(wl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallSim(policy)
	cfg.Seed = seed + 1000
	res, _, err := RunSource(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOO1EndToEnd(t *testing.T) {
	res := runOO1(t, core.NameUpdatedPointer, 1)
	if res.Collections == 0 {
		t.Fatal("no collections under OO1 workload")
	}
	if res.ReclaimedBytes == 0 {
		t.Fatal("nothing reclaimed under OO1 workload")
	}
	if res.ReclaimedBytes > res.ActualGarbageBytes {
		t.Fatalf("reclaimed %d > actual garbage %d", res.ReclaimedBytes, res.ActualGarbageBytes)
	}
	if res.TotalIOs != res.AppIOs+res.GCIOs {
		t.Fatal("I/O accounting broken")
	}
}

func TestOO1Paranoid(t *testing.T) {
	wl := smallOO1()
	g, err := workload.NewOO1(wl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallSim(core.NameMostGarbage)
	cfg.Audit = remsetAudit()
	if _, _, err := RunSource(cfg, g); err != nil {
		t.Fatal(err)
	}
}

// TestOO1ResultsTransfer checks the paper's central result on the second
// workload: the overwritten-pointer hint still beats random selection.
func TestOO1ResultsTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed comparison is slow")
	}
	sum := func(policy string) int64 {
		var total int64
		for seed := int64(1); seed <= 4; seed++ {
			total += runOO1(t, policy, seed).ReclaimedBytes
		}
		return total
	}
	up, rnd := sum(core.NameUpdatedPointer), sum(core.NameRandom)
	if up <= rnd {
		t.Fatalf("UpdatedPointer reclaimed %d <= Random %d under OO1", up, rnd)
	}
}
