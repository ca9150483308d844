// Package odbgc is a trace-driven simulation library for partitioned
// garbage collection of object databases, reproducing Cook, Wolf & Zorn,
// "Partition Selection Policies in Object Database Garbage Collection"
// (SIGMOD 1994; University of Colorado TR CU-CS-653-93).
//
// The library simulates an ODBMS storage layer — a physically partitioned
// object heap, an LRU write-back page buffer, remembered sets, and a
// breadth-first copying collector — and drives it with synthetic traces of
// an application mutating a forest of augmented binary trees. The variable
// under study is the partition selection policy: which partition the
// collector examines when it runs. Six policies from the paper (plus one
// ablation) are provided; see Policies.
//
// # Quickstart
//
//	res, _, err := odbgc.Run(odbgc.DefaultSimConfig(odbgc.UpdatedPointer), odbgc.DefaultWorkloadConfig())
//	if err != nil { ... }
//	fmt.Printf("total I/Os: %d, garbage reclaimed: %d KB\n", res.TotalIOs, res.ReclaimedBytes/1024)
//
// The cmd/experiments tool regenerates every table and figure of the
// paper's evaluation; cmd/gcsim runs one-off simulations; cmd/tracegen and
// cmd/traceinfo work with trace files.
package odbgc

import (
	"errors"
	"io"
	"math/rand"

	"odbgc/internal/core"
	"odbgc/internal/sim"
	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

// Policy names, re-exported from the policy registry.
const (
	// MutatedPartition collects the partition with the most pointer
	// stores into it (the paper's enhancement of Yong/Naughton/Yu).
	MutatedPartition = core.NameMutatedPartition
	// MutatedObjectYNY is the unenhanced Yong/Naughton/Yu policy that
	// also counts data mutations (ablation; not in the paper's tables).
	MutatedObjectYNY = core.NameMutatedObjectYNY
	// UpdatedPointer collects the partition the most overwritten pointers
	// pointed into — the paper's winning policy.
	UpdatedPointer = core.NameUpdatedPointer
	// WeightedPointer weighs overwritten pointers by 2^(16−w) of the
	// target's root-distance weight.
	WeightedPointer = core.NameWeightedPointer
	// Random collects a uniformly random partition.
	Random = core.NameRandom
	// MostGarbage consults the simulation oracle (impractical to
	// implement; the near-optimal comparison point).
	MostGarbage = core.NameMostGarbage
	// NoCollection never collects.
	NoCollection = core.NameNoCollection
)

// Re-exported configuration and result types. See the internal package
// docs for field-level detail; all fields are part of the public API.
type (
	// SimConfig fixes the simulated database geometry, buffer size,
	// collection trigger, and selection policy.
	SimConfig = sim.Config
	// WorkloadConfig parameterizes the synthetic application (database
	// size, tree shape, connectivity, traversal mix, churn).
	WorkloadConfig = workload.Config
	// OO1Config parameterizes the OO1-style parts-database workload, a
	// second application shape for testing whether the paper's results
	// transfer.
	OO1Config = workload.OO1Config
	// WorkloadSource is any trace generator the simulator can consume.
	WorkloadSource = workload.Source
	// WorkloadStats summarizes a generated trace.
	WorkloadStats = workload.Stats
	// Result is everything one simulation reports: I/O counts split
	// between application and collector, storage high-water marks,
	// reclamation totals, and optional time series.
	Result = sim.Result
	// Aggregate summarizes multi-seed runs metric by metric.
	Aggregate = sim.Aggregate
	// TraceEvent is one application event in a trace.
	TraceEvent = trace.Event
	// TraceSink consumes a stream of trace events.
	TraceSink = trace.Sink
)

// Policies returns the names of all registered partition selection
// policies, sorted.
func Policies() []string { return core.Names() }

// PaperPolicies returns the six policies the paper evaluates, in its
// tables' order.
func PaperPolicies() []string { return core.PaperNames() }

// DefaultSimConfig returns the paper's base simulator configuration
// (48-page partitions and buffer, collection every 280 overwrites) for
// the given policy.
func DefaultSimConfig(policy string) SimConfig { return sim.DefaultConfig(policy) }

// DefaultWorkloadConfig returns the paper's base workload: ≈5 MB of live
// data, ≈11.5 MB total allocation, connectivity ≈ 1.083.
func DefaultWorkloadConfig() WorkloadConfig { return workload.DefaultConfig() }

// DefaultOO1Config returns the OO1-style parts-database workload at a
// size comparable to the base tree workload.
func DefaultOO1Config() OO1Config { return workload.DefaultOO1Config() }

// RunOO1 generates the OO1-style workload and streams it through one
// simulation.
func RunOO1(simCfg SimConfig, oo1Cfg OO1Config) (Result, WorkloadStats, error) {
	g, err := workload.NewOO1(oo1Cfg)
	if err != nil {
		return Result{}, WorkloadStats{}, err
	}
	return sim.RunSource(simCfg, g)
}

// RunSource streams any workload source through one simulation.
func RunSource(simCfg SimConfig, src WorkloadSource) (Result, WorkloadStats, error) {
	return sim.RunSource(simCfg, src)
}

// Run generates the workload and streams it through one simulation,
// returning the simulation result and the trace summary.
func Run(simCfg SimConfig, wlCfg WorkloadConfig) (Result, WorkloadStats, error) {
	return sim.RunWorkload(simCfg, wlCfg)
}

// RunSeeds repeats Run n times with derived seeds, as the paper averages
// each configuration over 10 differently seeded runs.
func RunSeeds(simCfg SimConfig, wlCfg WorkloadConfig, n int) ([]Result, error) {
	return sim.RunSeeds(simCfg, wlCfg, n)
}

// Aggregates summarizes same-policy results metric by metric.
func Aggregates(results []Result) Aggregate { return sim.Aggregates(results) }

// NewSim returns a simulator that consumes trace events via its Emit
// method (it implements TraceSink) and reports via Finish. Use it to
// replay custom traces or drive the simulator from your own generator.
func NewSim(cfg SimConfig) (*sim.Sim, error) { return sim.New(cfg) }

// WriteTrace generates the workload into w as a chunked trace file, the
// format cmd/tracegen writes and cmd/gcsim -trace replays.
func WriteTrace(w io.Writer, cfg WorkloadConfig) (WorkloadStats, error) {
	g, err := workload.New(cfg)
	if err != nil {
		return WorkloadStats{}, err
	}
	cw := trace.NewChunkWriter(w, cfg.Fingerprint(), 0)
	st, err := g.Run(cw)
	if err != nil {
		return st, err
	}
	return st, cw.Flush()
}

// ReplayTrace streams a stored chunked trace from r through one
// simulation. Input that is not a chunked trace fails with an error
// wrapping trace.ErrBadChunkMagic.
func ReplayTrace(r io.Reader, simCfg SimConfig) (Result, error) {
	s, err := sim.New(simCfg)
	if err != nil {
		return Result{}, err
	}
	cr := trace.NewChunkReader(r)
	var c trace.Chunk
	for {
		err := cr.Next(&c)
		if errors.Is(err, io.EOF) {
			return s.Finish(), nil
		}
		if err != nil {
			return Result{}, err
		}
		if err := c.Replay(s); err != nil {
			return Result{}, err
		}
	}
}

// NewPolicy constructs a selection policy by name; rng is used only by
// the Random policy. To compare a custom policy against the paper's,
// implement core's Policy interface and return a fresh instance from
// SimConfig.PolicyFactory.
func NewPolicy(name string, rng *rand.Rand) (core.Policy, error) {
	return core.New(name, rng)
}
