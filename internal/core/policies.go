package core

import (
	"math/rand"

	"odbgc/internal/heap"
)

// MutatedPartition selects the partition in which the most pointers have
// been updated since the last collection. It is the paper's enhancement of
// the Yong/Naughton/Yu policy: only pointer stores count, because pure
// data mutations cannot create garbage. It still counts creation stores,
// which the paper identifies as one reason it guesses poorly.
type MutatedPartition struct{ counterPolicy }

// NewMutatedPartition returns a MutatedPartition policy.
func NewMutatedPartition() *MutatedPartition {
	return &MutatedPartition{newCounterPolicy()}
}

// Name implements Policy.
func (*MutatedPartition) Name() string { return NameMutatedPartition }

// PointerStore counts every pointer store against the partition being
// written into (the source object's partition).
func (m *MutatedPartition) PointerStore(ctx StoreContext) { m.bump(ctx.SrcPart, 1) }

// Select implements Policy.
func (m *MutatedPartition) Select(env *Env) (heap.PartitionID, bool) { return m.selectMax(env) }

// MutatedObjectYNY is the unenhanced Yong/Naughton/Yu policy: it selects
// the partition that has been mutated the most, counting data mutations as
// well as pointer stores. It exists as an ablation baseline quantifying
// the value of the paper's pointer-only enhancement; it is not one of the
// paper's six evaluated policies.
type MutatedObjectYNY struct{ counterPolicy }

// NewMutatedObjectYNY returns a MutatedObjectYNY policy.
func NewMutatedObjectYNY() *MutatedObjectYNY {
	return &MutatedObjectYNY{newCounterPolicy()}
}

// Name implements Policy.
func (*MutatedObjectYNY) Name() string { return NameMutatedObjectYNY }

// PointerStore counts the store against the written partition.
func (m *MutatedObjectYNY) PointerStore(ctx StoreContext) { m.bump(ctx.SrcPart, 1) }

// DataStore counts pure data mutations too — the behavior the paper's
// enhancement removes.
func (m *MutatedObjectYNY) DataStore(p heap.PartitionID) { m.bump(p, 1) }

// Select implements Policy.
func (m *MutatedObjectYNY) Select(env *Env) (heap.PartitionID, bool) { return m.selectMax(env) }

// UpdatedPointer selects the partition that the most overwritten pointers
// pointed into since the last collection: when a pointer is overwritten,
// the object it pointed to is more likely to become garbage, so overwrites
// are hints about where garbage lives. This is the paper's winning policy.
type UpdatedPointer struct{ counterPolicy }

// NewUpdatedPointer returns an UpdatedPointer policy.
func NewUpdatedPointer() *UpdatedPointer {
	return &UpdatedPointer{newCounterPolicy()}
}

// Name implements Policy.
func (*UpdatedPointer) Name() string { return NameUpdatedPointer }

// PointerStore counts overwrites against the old target's partition.
func (u *UpdatedPointer) PointerStore(ctx StoreContext) {
	if ctx.Overwrite() {
		u.bump(ctx.OldPart, 1)
	}
}

// Select implements Policy.
func (u *UpdatedPointer) Select(env *Env) (heap.PartitionID, bool) { return u.selectMax(env) }

// WeightedPointer refines UpdatedPointer with the observation that not all
// pointers are equal: in tree-like databases, losing a pointer near the
// root orphans a whole subtree, while losing a leaf pointer frees little.
// Each object carries a 4-bit weight approximating its distance from the
// database roots; an overwritten pointer to an object of weight w adds
// 2^(16−w) to the accumulator of the partition it pointed into.
type WeightedPointer struct{ counterPolicy }

// NewWeightedPointer returns a WeightedPointer policy.
func NewWeightedPointer() *WeightedPointer {
	return &WeightedPointer{newCounterPolicy()}
}

// Name implements Policy.
func (*WeightedPointer) Name() string { return NameWeightedPointer }

// PointerStore adds the exponential weight of the overwritten pointer's
// target to that target's partition.
func (w *WeightedPointer) PointerStore(ctx StoreContext) {
	if !ctx.Overwrite() {
		return
	}
	w.bump(ctx.OldPart, ExponentialWeight(ctx.OldWeight))
}

// Select implements Policy.
func (w *WeightedPointer) Select(env *Env) (heap.PartitionID, bool) { return w.selectMax(env) }

// ExponentialWeight returns 2^(16−w), the accumulator contribution of an
// overwritten pointer to an object of weight w (Section 3.1: overwriting
// the pointer to a weight-2 object contributes 2^14 = 16384).
func ExponentialWeight(w uint8) float64 {
	if w < 1 {
		w = 1
	}
	if w > heap.MaxWeight {
		w = heap.MaxWeight
	}
	return float64(int64(1) << (heap.MaxWeight - w))
}

// Random selects a uniformly random candidate partition. The paper uses it
// to measure how much the clever heuristics actually help.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a Random policy drawing from rng, which must not be
// nil.
func NewRandom(rng *rand.Rand) *Random { return &Random{rng: rng} }

// Name implements Policy.
func (*Random) Name() string { return NameRandom }

// PointerStore implements Policy; Random keeps no state.
func (*Random) PointerStore(StoreContext) {}

// DataStore implements Policy.
func (*Random) DataStore(heap.PartitionID) {}

// Select picks a uniformly random candidate.
func (r *Random) Select(env *Env) (heap.PartitionID, bool) {
	cands := env.Candidates()
	if len(cands) == 0 {
		return heap.NoPartition, false
	}
	return cands[r.rng.Intn(len(cands))], true
}

// Collected implements Policy.
func (*Random) Collected(_, _ heap.PartitionID) {}

// MostGarbage consults the simulation oracle and selects the partition
// currently containing the most garbage. It is impractical to implement in
// a real system and serves as the near-optimal comparison point. Note that
// picking the instantaneous best partition is not globally optimal: the
// paper observes UpdatedPointer occasionally beating it.
type MostGarbage struct{}

// NewMostGarbage returns a MostGarbage policy.
func NewMostGarbage() *MostGarbage { return &MostGarbage{} }

// Name implements Policy.
func (*MostGarbage) Name() string { return NameMostGarbage }

// PointerStore implements Policy; the oracle needs no barrier state.
func (*MostGarbage) PointerStore(StoreContext) {}

// DataStore implements Policy.
func (*MostGarbage) DataStore(heap.PartitionID) {}

// Select asks the oracle for the partition with the most garbage.
func (*MostGarbage) Select(env *Env) (heap.PartitionID, bool) {
	if len(env.Candidates()) == 0 {
		return heap.NoPartition, false
	}
	p, _ := env.Oracle.MostGarbagePartition()
	if p == heap.NoPartition {
		return heap.NoPartition, false
	}
	return p, true
}

// Collected implements Policy.
func (*MostGarbage) Collected(_, _ heap.PartitionID) {}

// NoCollection never collects; the database only grows. It bounds the
// space cost of doing nothing and exposes the locality benefit other
// policies get from compaction.
type NoCollection struct{}

// NewNoCollection returns a NoCollection policy.
func NewNoCollection() *NoCollection { return &NoCollection{} }

// Name implements Policy.
func (*NoCollection) Name() string { return NameNoCollection }

// PointerStore implements Policy.
func (*NoCollection) PointerStore(StoreContext) {}

// DataStore implements Policy.
func (*NoCollection) DataStore(heap.PartitionID) {}

// Select always declines.
func (*NoCollection) Select(*Env) (heap.PartitionID, bool) { return heap.NoPartition, false }

// Collected implements Policy; it is never called.
func (*NoCollection) Collected(_, _ heap.PartitionID) {}
