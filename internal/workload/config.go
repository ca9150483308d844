// Package workload implements the synthetic application of Section 5: a
// forest of augmented binary trees (binary trees plus "dense" edges
// connecting random nodes of the same tree), built breadth-first, visited
// by partial depth-first and breadth-first traversals, and mutated by
// random tree-edge deletions that create garbage. The generator emits a
// trace of application events; it knows nothing about partitions, buffers,
// or collection — that separation is what makes the simulation
// trace-driven.
package workload

import (
	"fmt"
	"hash/fnv"
	"math"

	"odbgc/internal/trace"
)

// Source is any application trace generator: the augmented-binary-tree
// workload of the paper (Generator) and the OO1-style parts database
// (OO1Generator) both implement it, and the simulator can consume either.
type Source interface {
	// Run streams the whole trace into sink and returns its summary.
	Run(sink trace.Sink) (Stats, error)
}

// Config parameterizes the synthetic application. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Seed drives all of the generator's randomness. Two generators with
	// equal configs emit identical traces.
	Seed int64

	// TargetLiveBytes is the live-data setpoint: the build phase creates
	// trees until the live estimate reaches it, and the churn phase
	// regrows what deletions remove to hold the estimate near it. The
	// paper's table runs keep roughly 5 MB of live data.
	TargetLiveBytes int64
	// TotalAllocBytes stops the churn phase once cumulative allocation
	// reaches it (the paper's "maximum allocated" axis in Figure 6).
	TotalAllocBytes int64
	// MinDeletions keeps churning until at least this many tree-edge
	// deletions (pointer overwrites) have occurred, so every run triggers
	// a comparable number of collections.
	MinDeletions int64
	// MaxEvents is a safety cap on emitted events; exceeding it is an
	// error (a sign the churn controller cannot reach its targets). It
	// may be at most about 4.29e9: every event may be a create, and
	// OIDs are 32-bit, so Validate refuses a cap whose run could issue
	// more than 2^32-1 OIDs.
	MaxEvents int64

	// LargeObjectSize is the size of large leaf objects (the paper: 64 KB,
	// like OO7 document nodes); LargeEvery attaches one per that many
	// regular nodes on average (0 disables large objects). The paper puts
	// about 20% of all bytes in large leaves, which at 100-byte nodes
	// means one large leaf per ~2600 nodes.
	LargeObjectSize int64
	LargeEvery      int

	// MeanTreeNodes is the mean number of nodes per tree; actual tree
	// sizes vary uniformly within ±50%.
	MeanTreeNodes int
	// DenseEdgeFraction is the probability that a node carries one dense
	// edge to a random node of the same tree. Database connectivity
	// (pointers per object) is approximately 1 + DenseEdgeFraction.
	DenseEdgeFraction float64
	// CrossTreeFraction is the probability that a dense edge targets a
	// random alive node of a uniformly chosen tree instead of the node's
	// own tree — the inter-session sharing of a multi-user object
	// database, and the cross-shard traffic a sharded simulation
	// (internal/shard) must exchange. The paper's workload keeps every
	// edge intra-tree (0, the default). A zero value draws no extra
	// randomness, so traces for existing configurations are unchanged.
	CrossTreeFraction float64
}

// DefaultConfig returns the base workload used for the paper's Tables
// 2–4: about 5 MB of live data, ~11.5 MB total allocation, connectivity
// ≈ 1.083, and enough deletions for ~30 collections at the simulator's
// 280-overwrite trigger.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		TargetLiveBytes:   4_500_000,
		TotalAllocBytes:   11_500_000,
		MinDeletions:      5000,
		MaxEvents:         80_000_000,
		LargeObjectSize:   65536,
		LargeEvery:        2600,
		MeanTreeNodes:     400,
		DenseEdgeFraction: 0.083,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.TargetLiveBytes <= 0:
		return fmt.Errorf("workload: TargetLiveBytes %d must be positive", c.TargetLiveBytes)
	case c.TotalAllocBytes < c.TargetLiveBytes:
		return fmt.Errorf("workload: TotalAllocBytes %d below TargetLiveBytes %d", c.TotalAllocBytes, c.TargetLiveBytes)
	case c.MinDeletions < 0:
		return fmt.Errorf("workload: MinDeletions %d negative", c.MinDeletions)
	case c.MaxEvents <= 0:
		return fmt.Errorf("workload: MaxEvents %d must be positive", c.MaxEvents)
	case c.LargeEvery < 0 || (c.LargeEvery > 0 && c.LargeObjectSize <= 0):
		return fmt.Errorf("workload: large object settings invalid (every=%d size=%d)", c.LargeEvery, c.LargeObjectSize)
	case c.MeanTreeNodes < 2:
		return fmt.Errorf("workload: MeanTreeNodes %d too small", c.MeanTreeNodes)
	case c.DenseEdgeFraction < 0 || c.DenseEdgeFraction > 1:
		return fmt.Errorf("workload: DenseEdgeFraction %v outside [0,1]", c.DenseEdgeFraction)
	case c.CrossTreeFraction < 0 || c.CrossTreeFraction > 1:
		return fmt.Errorf("workload: CrossTreeFraction %v outside [0,1]", c.CrossTreeFraction)
	}
	if n := c.oidBound(); n > math.MaxUint32 {
		return fmt.Errorf("workload: a run may issue up to %.0f OIDs (MaxEvents %d, plus the build phase and one churn iteration past the cap), past the 32-bit operand bound %d",
			n, c.MaxEvents, uint64(math.MaxUint32))
	}
	return nil
}

// oidBound returns an upper bound on the OIDs a run of c issues (OIDs
// count up from 1), so Validate can refuse a run that would overflow
// the traces' 32-bit operands before it starts rather than at Emit. It
// is computed in float64, which no config can overflow and which is
// exact to well under one OID near 2^32. Every OID is an object of at
// least the smallest object size, so a phase that allocates b bytes
// issues at most b/smallest OIDs, plus its last tree's; a tree holds at
// most maxNodes nodes, each of which may carry a large leaf.
//   - The build phase starts trees while the live bytes, of which no
//     deletion has yet taken any, are under TargetLiveBytes.
//   - Allocation does not stop the churn phase while MinDeletions is
//     unmet, so only MaxEvents bounds it: an iteration starts only
//     while fewer than MaxEvents events (each create one of them) have
//     been emitted, and the last one can overshoot. It deletes at most
//     one tree's bytes and regrows trees only while the live bytes are
//     under TargetLiveBytes, plus one more tree when it deleted
//     nothing.
//
// If the build phase emits MaxEvents events or more, the churn phase
// fails at its first iteration, so the bound is the larger of the two.
func (c Config) oidBound() float64 {
	maxNodes := float64(c.MeanTreeNodes/2 + c.MeanTreeNodes - 1)
	smallest, nodeBytes := float64(minObjectSize), float64(maxObjectSize)
	if c.LargeEvery > 0 {
		smallest = min(smallest, float64(c.LargeObjectSize))
		nodeBytes += float64(c.LargeObjectSize)
	}
	tree := 2 * maxNodes
	build := float64(c.TargetLiveBytes)/smallest + tree
	iteration := maxNodes*nodeBytes/smallest + 2*tree
	return max(build, float64(c.MaxEvents)-1+iteration)
}

// Connectivity returns the approximate pointers-per-object of the
// generated database: each node has one incoming tree edge plus
// DenseEdgeFraction expected dense edges.
func (c Config) Connectivity() float64 { return 1 + c.DenseEdgeFraction }

// Fingerprint hashes the full configuration (seed included) to a 64-bit
// value stamped into every chunk of a streamed trace file, so replay
// tooling can tell which generation produced a file and reject chunks
// from mixed files. It is FNV-1a over every field as a name=value pair,
// in a fixed order with the names spelled out, so it is deterministic
// across runs and platforms and renaming a Go field does not move it.
func (c Config) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "Seed=%d TargetLiveBytes=%d TotalAllocBytes=%d MinDeletions=%d MaxEvents=%d "+
		"LargeObjectSize=%d LargeEvery=%d MeanTreeNodes=%d DenseEdgeFraction=%v CrossTreeFraction=%v",
		c.Seed, c.TargetLiveBytes, c.TotalAllocBytes, c.MinDeletions, c.MaxEvents,
		c.LargeObjectSize, c.LargeEvery, c.MeanTreeNodes, c.DenseEdgeFraction, c.CrossTreeFraction)
	return h.Sum64()
}
