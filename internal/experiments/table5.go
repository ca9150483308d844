package experiments

import (
	"fmt"

	"odbgc/internal/sim"
	"odbgc/internal/stats"
	"odbgc/internal/workload"
)

// Table5Connectivities are the database connectivities (pointers per
// object) the paper sweeps in Table 5, highest first as the paper prints
// them.
var Table5Connectivities = []float64{1.167, 1.083, 1.040, 1.005}

// submitTable5 flattens the connectivity sweep into scheduler jobs; read
// the result only after the scheduler's Wait succeeds.
func submitTable5(s *sim.Scheduler, baseWL workload.Config, mkSim func(string) sim.Config, conns []float64, seeds int) *Table5Result {
	res := &Table5Result{Connectivities: conns}
	for _, c := range conns {
		wl := baseWL
		wl.DenseEdgeFraction = c - 1
		res.Runs = append(res.Runs, submitPolicies(s, fmt.Sprintf("table5/C=%.3f", c), wl, mkSim, seeds))
	}
	return res
}

// Table5Result holds one BaseRun per connectivity.
type Table5Result struct {
	Connectivities []float64
	Runs           []*BaseRun
}

// Table renders the paper's Table 5 layout: policies × connectivities,
// cells are mean percent of garbage reclaimed.
func (r *Table5Result) Table() *stats.Table {
	headers := []string{"Selection Policy"}
	for _, c := range r.Connectivities {
		headers = append(headers, fmt.Sprintf("C = %.3f", c))
	}
	t := stats.NewTable("Table 5: Database Connectivity Effects on Garbage Collection Performance (% of garbage reclaimed)", headers...)
	for _, policy := range r.Runs[0].Policies {
		row := []string{policy}
		for _, run := range r.Runs {
			agg := sim.Aggregates(run.Results[policy])
			row = append(row, fmt.Sprintf("%.1f", agg.FractionReclaimed.Mean))
		}
		t.AddRow(row...)
	}
	return t
}

// Workloads returns the swept workload configs (exported for benches).
func (r *Table5Result) Workloads() []workload.Config {
	out := make([]workload.Config, len(r.Connectivities))
	for i, c := range r.Connectivities {
		wl := BaseWorkload()
		wl.DenseEdgeFraction = c - 1
		out[i] = wl
	}
	return out
}
