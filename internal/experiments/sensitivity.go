package experiments

import (
	"fmt"

	"odbgc/internal/core"
	"odbgc/internal/sim"
	"odbgc/internal/stats"
	"odbgc/internal/workload"
)

// Sensitivity studies for the two knobs the paper holds constant but
// flags as consequential (Section 4.1): the collection trigger interval
// ("this number varied from 150–300 overwrites") and the partition size
// ("partition size (relative to the database size) also affects how often
// a collection is performed"). Each sweep reports the fraction of garbage
// reclaimed and the total I/O for a small set of representative policies.

// SensitivityPolicies are the policies the sensitivity sweeps exercise.
var SensitivityPolicies = []string{
	core.NameRandom,
	core.NameUpdatedPointer,
	core.NameMostGarbage,
}

// TriggerIntervals are the swept overwrite-trigger values; the paper's
// range plus one coarser point.
var TriggerIntervals = []int64{150, 200, 280, 450}

// PartitionSizes are the swept partition sizes in 8 KB pages; the paper's
// range endpoints plus its base value.
var PartitionSizes = []int{24, 48, 96}

// SensitivityResult holds both sweeps.
type SensitivityResult struct {
	// Policies, Triggers and Partitions are what the sweeps ran: the
	// policies, the trigger intervals (overwrites) and the partition
	// sizes (8 KB pages).
	Policies   []string
	Triggers   []int64
	Partitions []int
	// TriggerFraction[policy][i] is the mean % of garbage reclaimed at
	// Triggers[i]; PartitionFraction likewise over Partitions.
	TriggerFraction   map[string][]float64
	PartitionFraction map[string][]float64
}

// sensitivityJob holds both sweeps' result slots, indexed
// [sweepValue][policy][seed]; finish aggregates them.
type sensitivityJob struct {
	triggers   []int64
	partitions []int
	policies   []string
	trigger    [][][]sim.Result
	partition  [][][]sim.Result
}

// submitSensitivity flattens both sweeps into scheduler jobs. Every cell
// replays the same base-workload seeds, so with a shared cache the whole
// sensitivity study generates no traces beyond the base experiment's.
func submitSensitivity(s *sim.Scheduler, wl workload.Config, mkSim func(string) sim.Config,
	triggers []int64, partitions []int, seeds int) *sensitivityJob {
	j := &sensitivityJob{triggers: triggers, partitions: partitions, policies: SensitivityPolicies}
	slots := func(n int) [][][]sim.Result {
		out := make([][][]sim.Result, n)
		for i := range out {
			out[i] = make([][]sim.Result, len(j.policies))
			for q := range out[i] {
				out[i][q] = make([]sim.Result, seeds)
			}
		}
		return out
	}
	j.trigger = slots(len(triggers))
	j.partition = slots(len(partitions))

	for ti, trigger := range triggers {
		for qi, policy := range j.policies {
			cfg := mkSim(policy)
			cfg.TriggerOverwrites = trigger
			s.SubmitSeeds(fmt.Sprintf("sens/trigger=%d/%s", trigger, policy), cfg, wl, seeds, j.trigger[ti][qi])
		}
	}
	for pi, pages := range partitions {
		for qi, policy := range j.policies {
			cfg := mkSim(policy)
			cfg.Heap.PartitionPages = pages
			s.SubmitSeeds(fmt.Sprintf("sens/partition=%d/%s", pages, policy), cfg, wl, seeds, j.partition[pi][qi])
		}
	}
	return j
}

// finish aggregates the completed sweeps.
func (j *sensitivityJob) finish() *SensitivityResult {
	res := &SensitivityResult{
		Policies:          j.policies,
		Triggers:          j.triggers,
		Partitions:        j.partitions,
		TriggerFraction:   make(map[string][]float64),
		PartitionFraction: make(map[string][]float64),
	}
	for ti := range j.triggers {
		for qi, policy := range j.policies {
			agg := sim.Aggregates(j.trigger[ti][qi])
			res.TriggerFraction[policy] = append(res.TriggerFraction[policy], agg.FractionReclaimed.Mean)
		}
	}
	for pi := range j.partitions {
		for qi, policy := range j.policies {
			agg := sim.Aggregates(j.partition[pi][qi])
			res.PartitionFraction[policy] = append(res.PartitionFraction[policy], agg.FractionReclaimed.Mean)
		}
	}
	return res
}

// TriggerTable renders the trigger sweep.
func (r *SensitivityResult) TriggerTable() *stats.Table {
	headers := []string{"Selection Policy"}
	for _, tr := range r.Triggers {
		headers = append(headers, fmt.Sprintf("every %d", tr))
	}
	t := stats.NewTable("Sensitivity: % garbage reclaimed vs collection trigger (overwrites)", headers...)
	for _, policy := range r.Policies {
		row := []string{policy}
		for _, v := range r.TriggerFraction[policy] {
			row = append(row, fmt.Sprintf("%.1f", v))
		}
		t.AddRow(row...)
	}
	return t
}

// PartitionTable renders the partition-size sweep.
func (r *SensitivityResult) PartitionTable() *stats.Table {
	headers := []string{"Selection Policy"}
	for _, pages := range r.Partitions {
		headers = append(headers, fmt.Sprintf("%d pages", pages))
	}
	t := stats.NewTable("Sensitivity: % garbage reclaimed vs partition size", headers...)
	for _, policy := range r.Policies {
		row := []string{policy}
		for _, v := range r.PartitionFraction[policy] {
			row = append(row, fmt.Sprintf("%.1f", v))
		}
		t.AddRow(row...)
	}
	return t
}
