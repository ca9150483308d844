// Package check is the simulator's correctness layer: a cross-structure
// invariant auditor that reconciles the incrementally maintained hot
// structures (object table, partition residents, remembered sets, page
// buffer frame arena, counters) against brute-force ground truth, and a
// differential self-check harness (SelfCheck) that replays one
// configuration through deliberately independent slow paths and demands
// bit-identical results.
//
// The auditor hooks into a run through sim.Config.Audit (see Audited);
// with the hook unset the simulator's event path pays only a nil check,
// so production runs are unaffected.
package check

import (
	"fmt"
	"sort"

	"odbgc/internal/heap"
	"odbgc/internal/sim"
)

// Run executes the full invariant catalog against a simulator at a
// quiescent point (between events). It is O(heap + buffer) per call and
// returns the first violation found, or nil.
func Run(s *sim.Sim) error {
	if err := s.Heap().CheckInvariants(); err != nil {
		return err
	}
	if err := s.Buffer().CheckInvariants(); err != nil {
		return err
	}
	if err := s.Remset().CheckInvariants(); err != nil {
		return err
	}
	if err := Weights(s.Heap()); err != nil {
		return err
	}
	return Conservation(s)
}

// Audited returns the audit configuration wiring the full catalog into a
// simulation: it runs after every collector activation and, when
// everyEvents is positive, every everyEvents events (see
// sim.AuditConfig).
func Audited(everyEvents int64) sim.AuditConfig {
	return sim.AuditConfig{Check: Run, EveryEvents: everyEvents}
}

// Weights verifies the WeightedPointer metadata bounds: every resident
// object's weight lies in [1, heap.MaxWeight] (the 4-bit encoding plus
// the "weight 0 never appears" floor), and every database root has
// weight exactly 1 — roots are relaxed to 1 when rooted and weights only
// decrease.
func Weights(h *heap.Heap) error {
	for pid := 0; pid < h.NumPartitions(); pid++ {
		for _, s := range h.Partition(heap.PartitionID(pid)).Slots() {
			w := h.Weight(s)
			if w < 1 || w > heap.MaxWeight {
				return fmt.Errorf("check: object %d weight %d outside [1,%d]", h.OID(s), w, heap.MaxWeight)
			}
			if h.IsRoot(s) && w != 1 {
				return fmt.Errorf("check: root object %d has weight %d, want 1", h.OID(s), w)
			}
		}
	}
	return nil
}

// Conservation verifies the byte and object accounting across the
// allocator, collector, and reachability oracle:
//
//   - total allocated bytes == occupied bytes + lifetime reclaimed bytes
//     (nothing leaks, nothing is double-reclaimed), and likewise for
//     object counts;
//   - live bytes never exceed occupied bytes;
//   - the oracle's per-partition garbage tallies are non-negative and sum
//     to occupied − live.
//
// The collector's lifetime counters make this hold across warm-start
// measurement resets. It holds only between events: mid-collection an
// object is transiently accounted in two places.
func Conservation(s *sim.Sim) error {
	h := s.Heap()
	life := s.CollectorLifetime()
	occupied := h.OccupiedBytes()
	if got, want := occupied+life.ReclaimedBytes, h.TotalAllocatedBytes(); got != want {
		return fmt.Errorf("check: byte conservation violated: occupied %d + reclaimed %d = %d, total allocated %d",
			occupied, life.ReclaimedBytes, got, want)
	}
	if got, want := int64(h.Len())+life.ReclaimedObjects, h.TotalAllocatedObjects(); got != want {
		return fmt.Errorf("check: object conservation violated: resident %d + reclaimed %d = %d, total allocated %d",
			h.Len(), life.ReclaimedObjects, got, want)
	}
	live := s.Oracle().LiveBytes()
	if live > occupied {
		return fmt.Errorf("check: live bytes %d exceed occupied bytes %d", live, occupied)
	}
	var garbage int64
	for p, g := range s.Oracle().GarbageByPartition() {
		if g < 0 {
			return fmt.Errorf("check: partition %d has negative garbage %d", p, g)
		}
		garbage += g
	}
	if garbage != occupied-live {
		return fmt.Errorf("check: per-partition garbage sums to %d, occupied−live is %d", garbage, occupied-live)
	}
	return nil
}

// TriggerParity verifies the policy-independence of the collection
// trigger across a suite: the paper's pairing discipline replays one
// workload seed under every policy, and since pointer overwrites are a
// function of the trace alone, the trigger must fire at the same events
// everywhere. For each seed index the event count, overwrite count,
// allocated bytes, and trigger activations (collections + declined
// selections) must agree across all policies.
//
// The activation identity assumes each activation collects at most one
// partition (sim.Config.CollectPartitions ≤ 1), the paper's setting.
func TriggerParity(results map[string][]sim.Result) error {
	// Iterate policies in sorted order so the first divergence reported
	// is the same on every run.
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil
	}
	refName := names[0]
	ref := results[refName]
	for _, name := range names[1:] {
		rs := results[name]
		if len(rs) != len(ref) {
			return fmt.Errorf("check: %s ran %d seeds, %s ran %d", name, len(rs), refName, len(ref))
		}
		for i := range rs {
			a, b := ref[i], rs[i]
			if a.Events != b.Events {
				return fmt.Errorf("check: seed %d: %s saw %d events, %s saw %d — shared trace violated", i, refName, a.Events, name, b.Events)
			}
			if a.Overwrites != b.Overwrites {
				return fmt.Errorf("check: seed %d: %s counted %d overwrites, %s counted %d — barrier depends on policy", i, refName, a.Overwrites, name, b.Overwrites)
			}
			if a.TotalAllocatedBytes != b.TotalAllocatedBytes {
				return fmt.Errorf("check: seed %d: %s allocated %d bytes, %s allocated %d", i, refName, a.TotalAllocatedBytes, name, b.TotalAllocatedBytes)
			}
			if aAct, bAct := a.Collections+a.Declined, b.Collections+b.Declined; aAct != bAct {
				return fmt.Errorf("check: seed %d: trigger fired %d times under %s but %d under %s — trigger is not policy-independent",
					i, aAct, refName, bAct, name)
			}
		}
	}
	return nil
}
