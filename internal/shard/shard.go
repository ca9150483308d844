// Package shard runs one simulation as N partition-sharded simulators:
// the object space is split across N shards, each owning a private heap,
// page buffer, remembered sets, collection trigger, and collector, and
// each consuming a per-shard sub-stream demultiplexed from one global
// trace. It is the "parallel within a single simulation" substrate — the
// architecture a production object database with per-zone collectors
// has, scaled down to the paper's simulator.
//
// # Routing
//
// The workload is a forest of trees whose tree edges never leave their
// tree, so the unit of sharding is the tree: a root create (no parent)
// is assigned a shard by the configured Assignment policy, and every
// child object inherits its parent's shard. Each shard then sees a
// dense, private object space (the demuxer renumbers global OIDs to
// per-shard local OIDs), and with one shard the mapping is the identity
// — the single-shard engine replays the exact bytes of the input trace.
//
// # Cross-shard references
//
// Dense edges may target another tree (workload.Config.CrossTreeFraction),
// and so another shard. The owning shard cannot store a foreign OID in
// its heap; the demuxer rewrites such a write's target to nil and
// records the true target in a sidecar. The engine tracks the pointer in
// a per-shard foreign-out table and queues a remembered-set delta (add
// or remove of one external reference count) for the target's shard. Each
// shard's external-reference counts act as extra collection roots, the
// cross-shard analogue of a remembered set.
//
// # Epochs
//
// Deltas are exchanged between epochs: the demuxer cuts the global
// stream every Config.EpochEvents events, and every shard drains its
// batch of the epoch — on its own goroutine when Config.Parallel is set,
// in shard order on the caller's goroutine otherwise. Once every drain
// has finished, one exchange on the caller's goroutine applies the
// epoch's deltas in (receiver, sender) order, before any shard starts
// the next epoch. The state at every epoch boundary is therefore a pure
// function of the trace and the configuration, and the two modes differ
// only in where the drains run; check.SelfCheck confirms them
// bit-identical for every policy. A drain that fails or panics fails
// the run with an error naming its shard.
package shard

import (
	"fmt"

	"odbgc/internal/sim"
)

// MaxShards caps the shard count. The partition space of a simulated
// database grows on demand, so the cap — not a partition count known up
// front — is what bounds how finely the object space can be split; the
// router also relies on it to pack shard IDs into single bytes.
const MaxShards = 64

// DefaultEpochEvents is the epoch length (in global trace events) used
// when Config.EpochEvents is zero: long enough to amortize the barrier,
// short enough to bound how far shards drift apart.
const DefaultEpochEvents = 1 << 18

// Assignment selects how root creates (new trees) map to shards.
type Assignment int

const (
	// RoundRobin deals trees to shards in rotation — the load-leveling
	// default.
	RoundRobin Assignment = iota
	// Range assigns contiguous blocks of trees to each shard in turn
	// (block size Config.RangeBlock), preserving locality of
	// consecutively built trees at the cost of skew.
	Range
)

// String names the assignment policy.
func (a Assignment) String() string {
	switch a {
	case RoundRobin:
		return "roundrobin"
	case Range:
		return "range"
	default:
		return fmt.Sprintf("Assignment(%d)", int(a))
	}
}

// ParseAssignment parses the CLI spelling of an assignment policy.
func ParseAssignment(s string) (Assignment, error) {
	switch s {
	case "roundrobin":
		return RoundRobin, nil
	case "range":
		return Range, nil
	default:
		return 0, fmt.Errorf("shard: unknown assignment %q (want roundrobin or range)", s)
	}
}

// DefaultRangeBlock is the Range assignment's block size when
// Config.RangeBlock is zero.
const DefaultRangeBlock = 64

// Config parameterizes a sharded run.
type Config struct {
	// Shards is the shard count, in [1, MaxShards].
	Shards int
	// Assignment maps new trees to shards (default RoundRobin).
	Assignment Assignment
	// RangeBlock is the trees-per-block of the Range assignment
	// (0 selects DefaultRangeBlock; ignored under RoundRobin).
	RangeBlock int
	// EpochEvents is the epoch length in global trace events
	// (0 selects DefaultEpochEvents).
	EpochEvents int64
	// Parallel drains each shard's epoch batch on its own goroutine, and
	// demultiplexes the next epoch while they run; false drains the
	// shards in order on the caller's goroutine. The epoch loop and the
	// exchange are the same, so results are identical (checked by
	// check.SelfCheck).
	Parallel bool
	// Sim is the per-shard simulator configuration. Each shard gets its
	// own instance with Seed offset by its shard index (so shard 0 of a
	// single-shard engine matches an unsharded run exactly).
	Sim sim.Config
	// Record, when non-nil, supplies one recorder per shard: shard i's
	// simulator gets Record(i)'s hooks (a nil return leaves that shard
	// unrecorded), and its rows are tagged with the epoch in force when
	// they were produced. Recorders are finished in shard order when the
	// run completes, so the recorded stream is deterministic in both
	// serial and parallel mode. Any Sim.Record hooks in the embedded
	// config are replaced.
	Record func(shard int) sim.RunRecorder
}

func (c Config) validate() error {
	switch {
	case c.Shards < 1:
		return fmt.Errorf("shard: Shards %d must be at least 1", c.Shards)
	case c.Shards > MaxShards:
		return fmt.Errorf("shard: Shards %d exceeds the %d-shard cap", c.Shards, MaxShards)
	case c.RangeBlock < 0:
		return fmt.Errorf("shard: RangeBlock %d negative", c.RangeBlock)
	case c.EpochEvents < 0:
		return fmt.Errorf("shard: EpochEvents %d negative", c.EpochEvents)
	case c.EpochEvents > 1<<30:
		return fmt.Errorf("shard: EpochEvents %d exceeds the 2^30 cap (foreign-write marks index epoch batches with 32-bit positions)", c.EpochEvents)
	case c.Sim.GlobalSweepEvery > 0:
		return fmt.Errorf("shard: GlobalSweepEvery is unsupported in sharded runs (a global mark cannot see cross-shard references)")
	case c.Sim.WarmStart:
		return fmt.Errorf("shard: WarmStart does not apply to trace replay")
	case c.Sim.SampleEvery > 0:
		return fmt.Errorf("shard: SampleEvery is unsupported in sharded runs (no single time series exists across shards)")
	}
	return nil
}
