// Package core implements the paper's primary contribution: the partition
// selection policies of Section 3.1. A policy observes pointer and data
// stores at the write barrier and, when the collector is triggered, picks
// the partition to collect.
//
// The package provides the two new policies the paper proposes
// (UpdatedPointer and WeightedPointer), its enhancement of the
// Yong/Naughton/Yu policy (MutatedPartition), the unenhanced YNY policy as
// an ablation (MutatedObjectYNY), and the three reference policies used to
// bound the design space (Random, MostGarbage, NoCollection).
package core

import (
	"fmt"
	"math/rand"
	"sort"

	"odbgc/internal/heap"
)

// StoreContext describes one pointer store to a policy's write-barrier
// hook. All partition and weight values are captured at store time, before
// the store mutates anything the policy might inspect.
type StoreContext struct {
	// Src is the object written into; SrcPart is its partition.
	Src     heap.OID
	SrcPart heap.PartitionID
	// Old is the overwritten pointer value (NilOID if the slot was empty);
	// OldPart is the partition the old target resides in and OldWeight its
	// root-distance weight, both meaningful only when Old is non-nil.
	Old       heap.OID
	OldPart   heap.PartitionID
	OldWeight uint8
	// New is the stored value, possibly NilOID.
	New heap.OID
	// Creation marks the store that installs a newly allocated object into
	// its parent. MutatedPartition deliberately does not distinguish these
	// (the paper cites that as one of its weaknesses); UpdatedPointer is
	// unaffected since a creation store overwrites nothing.
	Creation bool
}

// Overwrite reports whether the store overwrote a live pointer — the
// event the paper's new policies treat as a hint about garbage.
func (c StoreContext) Overwrite() bool { return c.Old != heap.NilOID }

// Env gives Select access to the simulated database. Only MostGarbage uses
// the oracle.
type Env struct {
	Heap   *heap.Heap
	Oracle *heap.Oracle

	cands []heap.PartitionID // Candidates scratch, reused per call
}

// Candidates returns the partitions eligible for collection — every
// partition that holds data and is not the reserved empty partition — in
// ascending ID order. The returned slice is scratch space owned by the Env
// and is invalidated by the next call.
func (e *Env) Candidates() []heap.PartitionID {
	out := e.cands[:0]
	for id := 0; id < e.Heap.NumPartitions(); id++ {
		pid := heap.PartitionID(id)
		if pid == e.Heap.EmptyPartition() {
			continue
		}
		if e.Heap.Partition(pid).Used() > 0 {
			out = append(out, pid)
		}
	}
	e.cands = out
	return out
}

// Policy selects partitions to collect. Implementations are not safe for
// concurrent use; each simulation owns one instance.
type Policy interface {
	// Name returns the policy's registry name.
	Name() string
	// PointerStore is invoked at the write barrier for every pointer
	// store, after the heap mutation.
	PointerStore(ctx StoreContext)
	// DataStore is invoked for pure data mutations of an object residing
	// in the given partition. Only the unenhanced YNY policy cares.
	DataStore(p heap.PartitionID)
	// Select picks the partition to collect. ok is false when the policy
	// declines to collect (NoCollection, or an empty database).
	Select(env *Env) (victim heap.PartitionID, ok bool)
	// Collected notifies the policy that p was collected so it can reset
	// per-partition state, and that dest received the survivors.
	Collected(p, dest heap.PartitionID)
}

// counterPolicy is the shared machinery of the heuristic policies: a
// per-partition accumulator (a dense slice indexed by PartitionID),
// selection of the maximum, and zeroing after collection. Ties break
// toward the lowest partition ID.
type counterPolicy struct {
	counts []float64
}

func newCounterPolicy() counterPolicy {
	return counterPolicy{}
}

func (c *counterPolicy) at(p heap.PartitionID) float64 {
	if p < 0 || int(p) >= len(c.counts) {
		return 0
	}
	return c.counts[p]
}

func (c *counterPolicy) bump(p heap.PartitionID, by float64) {
	if p == heap.NoPartition {
		return
	}
	if want := int(p) + 1; want > len(c.counts) {
		c.counts = append(c.counts, make([]float64, want-len(c.counts))...)
	}
	c.counts[p] += by
}

func (c *counterPolicy) selectMax(env *Env) (heap.PartitionID, bool) {
	cands := env.Candidates()
	if len(cands) == 0 {
		return heap.NoPartition, false
	}
	best, bestScore := cands[0], c.at(cands[0])
	for _, p := range cands[1:] {
		if s := c.at(p); s > bestScore {
			best, bestScore = p, s
		}
	}
	return best, true
}

func (c *counterPolicy) Collected(p, _ heap.PartitionID) {
	if int(p) < len(c.counts) {
		c.counts[p] = 0
	}
}

// DataStore is a no-op for every policy except MutatedObjectYNY.
func (c *counterPolicy) DataStore(heap.PartitionID) {}

// Score exposes a partition's accumulator for tests and diagnostics.
func (c *counterPolicy) Score(p heap.PartitionID) float64 { return c.at(p) }

// New constructs a policy by registry name. rng seeds the Random policy,
// which rejects a nil source, and is ignored by the others; it must not
// be shared with the workload generator so policy choice cannot perturb
// the trace.
func New(name string, rng *rand.Rand) (Policy, error) {
	switch name {
	case NameMutatedPartition:
		return NewMutatedPartition(), nil
	case NameMutatedObjectYNY:
		return NewMutatedObjectYNY(), nil
	case NameUpdatedPointer:
		return NewUpdatedPointer(), nil
	case NameWeightedPointer:
		return NewWeightedPointer(), nil
	case NameRandom:
		if rng == nil {
			return nil, fmt.Errorf("core: policy %s needs a random source, got nil", NameRandom)
		}
		return NewRandom(rng), nil
	case NameMostGarbage:
		return NewMostGarbage(), nil
	case NameNoCollection:
		return NewNoCollection(), nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q (known: %v)", name, Names())
	}
}

// Registry names for every policy.
const (
	NameMutatedPartition = "MutatedPartition"
	NameMutatedObjectYNY = "MutatedObjectYNY"
	NameUpdatedPointer   = "UpdatedPointer"
	NameWeightedPointer  = "WeightedPointer"
	NameRandom           = "Random"
	NameMostGarbage      = "MostGarbage"
	NameNoCollection     = "NoCollection"
)

// Names returns every registered policy name, sorted.
func Names() []string {
	names := []string{
		NameMutatedPartition,
		NameMutatedObjectYNY,
		NameUpdatedPointer,
		NameWeightedPointer,
		NameRandom,
		NameMostGarbage,
		NameNoCollection,
	}
	sort.Strings(names)
	return names
}

// PaperNames returns the six policies evaluated in the paper, in the order
// its tables list them (worst space behavior first).
func PaperNames() []string {
	return []string{
		NameNoCollection,
		NameMutatedPartition,
		NameRandom,
		NameWeightedPointer,
		NameUpdatedPointer,
		NameMostGarbage,
	}
}
