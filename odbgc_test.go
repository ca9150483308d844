package odbgc

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/trace"
)

// fastWorkload keeps facade tests quick.
func fastWorkload() WorkloadConfig {
	wl := DefaultWorkloadConfig()
	wl.TargetLiveBytes = 150_000
	wl.TotalAllocBytes = 400_000
	wl.MinDeletions = 300
	wl.MeanTreeNodes = 120
	wl.LargeObjectSize = 8192
	wl.LargeEvery = 300
	return wl
}

func fastSim(policy string) SimConfig {
	cfg := DefaultSimConfig(policy)
	cfg.Heap.PartitionPages = 4
	cfg.TriggerOverwrites = 40
	return cfg
}

func TestPoliciesList(t *testing.T) {
	all := Policies()
	if len(all) != 7 {
		t.Fatalf("Policies() = %v", all)
	}
	paper := PaperPolicies()
	if len(paper) != 6 {
		t.Fatalf("PaperPolicies() = %v", paper)
	}
	if paper[0] != NoCollection || paper[len(paper)-1] != MostGarbage {
		t.Fatalf("paper order = %v", paper)
	}
}

func TestRunFacade(t *testing.T) {
	res, wl, err := Run(fastSim(UpdatedPointer), fastWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != UpdatedPointer {
		t.Fatalf("policy = %q", res.Policy)
	}
	if res.Events != wl.Events || res.Events == 0 {
		t.Fatalf("events: sim %d, workload %d", res.Events, wl.Events)
	}
	if res.Collections == 0 || res.ReclaimedBytes == 0 {
		t.Fatalf("no collection activity: %+v", res)
	}
}

// TestRunOO1RejectsWarmStart: a trace source has no build/churn
// boundary, so a warm start cannot exclude anything and must fail by
// name rather than silently measure a cold run.
func TestRunOO1RejectsWarmStart(t *testing.T) {
	cfg := fastSim(UpdatedPointer)
	cfg.WarmStart = true
	if _, _, err := RunOO1(cfg, DefaultOO1Config()); err == nil || !strings.Contains(err.Error(), "WarmStart") {
		t.Fatalf("RunOO1 with WarmStart: err = %v, want an error naming WarmStart", err)
	}
}

func TestRunSeedsFacade(t *testing.T) {
	results, err := RunSeeds(fastSim(Random), fastWorkload(), 3)
	if err != nil {
		t.Fatal(err)
	}
	agg := Aggregates(results)
	if agg.N != 3 || agg.Policy != Random {
		t.Fatalf("agg = %+v", agg)
	}
}

func TestTraceRoundTripFacade(t *testing.T) {
	var buf bytes.Buffer
	st, err := WriteTrace(&buf, fastWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if st.Events == 0 || buf.Len() == 0 {
		t.Fatal("empty trace written")
	}
	res, err := ReplayTrace(&buf, fastSim(MostGarbage))
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != st.Events {
		t.Fatalf("replayed %d events, trace has %d", res.Events, st.Events)
	}
	if _, err := ReplayTrace(strings.NewReader("not a trace"), fastSim(MostGarbage)); !errors.Is(err, trace.ErrBadChunkMagic) {
		t.Fatalf("ReplayTrace of a non-trace: err = %v, want ErrBadChunkMagic", err)
	}
}

func TestNewPolicyFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range Policies() {
		p, err := NewPolicy(name, rng)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := NewPolicy("nope", rng); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// alwaysLowest is a trivial custom policy for testing PolicyFactory.
type alwaysLowest struct{ core.NoCollection }

func (*alwaysLowest) Name() string { return "AlwaysLowest" }
func (*alwaysLowest) Select(env *core.Env) (heap.PartitionID, bool) {
	cands := env.Candidates()
	if len(cands) == 0 {
		return heap.NoPartition, false
	}
	return cands[0], true
}

func TestCustomPolicyViaPolicyFactory(t *testing.T) {
	cfg := fastSim("AlwaysLowest")
	cfg.PolicyFactory = func() core.Policy { return &alwaysLowest{} }
	res, _, err := Run(cfg, fastWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.Collections == 0 {
		t.Fatal("custom policy never collected")
	}
	if res.Policy != "AlwaysLowest" {
		t.Fatalf("result policy = %q", res.Policy)
	}
}

// TestPaperHeadlineShape asserts the reproduction's central claims at
// reduced scale across a few seeds: the oracle and the paper's
// UpdatedPointer policy reclaim more garbage than Random, which reclaims
// more than nothing; and bad selection (MutatedPartition) reclaims least.
func TestPaperHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-policy comparison is slow")
	}
	mean := func(policy string) float64 {
		results, err := RunSeeds(fastSim(policy), fastWorkload(), 5)
		if err != nil {
			t.Fatal(err)
		}
		return Aggregates(results).ReclaimedKB.Mean
	}
	mg := mean(MostGarbage)
	up := mean(UpdatedPointer)
	rnd := mean(Random)
	mp := mean(MutatedPartition)
	if !(mg > 0 && up > 0 && rnd > 0 && mp > 0) {
		t.Fatalf("degenerate reclamation: mg=%v up=%v rnd=%v mp=%v", mg, up, rnd, mp)
	}
	if up < rnd {
		t.Errorf("UpdatedPointer (%v KB) reclaimed less than Random (%v KB)", up, rnd)
	}
	if mg < rnd {
		t.Errorf("MostGarbage (%v KB) reclaimed less than Random (%v KB)", mg, rnd)
	}
	if mp > up {
		t.Errorf("MutatedPartition (%v KB) beat UpdatedPointer (%v KB)", mp, up)
	}
}
