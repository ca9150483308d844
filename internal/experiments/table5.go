package experiments

import (
	"fmt"

	"odbgc/internal/sim"
	"odbgc/internal/stats"
	"odbgc/internal/workload"
)

// Table5DenseFractions are the dense-edge fractions of the paper's Table
// 5 connectivity sweep, highest first as the paper prints them: database
// connectivity (pointers per object) is 1 + the fraction, so the columns
// are C = 1.167, 1.083, 1.040 and 1.005. The sweep sets the fractions
// themselves, so the C = 1.083 column runs the base workload's own
// Config and replays the Tables 2–4 traces.
var Table5DenseFractions = []float64{0.167, 0.083, 0.040, 0.005}

// submitTable5 flattens the connectivity sweep into scheduler jobs; read
// the result only after the scheduler's Wait succeeds.
func submitTable5(s *sim.Scheduler, baseWL workload.Config, mkSim func(string) sim.Config, fractions []float64, seeds int) *Table5Result {
	res := &Table5Result{DenseFractions: fractions}
	for _, d := range fractions {
		wl := baseWL
		wl.DenseEdgeFraction = d
		res.Runs = append(res.Runs, submitPolicies(s, fmt.Sprintf("table5/C=%.3f", 1+d), wl, mkSim, seeds))
	}
	return res
}

// Table5Result holds one BaseRun per swept dense-edge fraction.
type Table5Result struct {
	DenseFractions []float64
	Runs           []*BaseRun
}

// Table renders the paper's Table 5 layout: policies × connectivities,
// cells are mean percent of garbage reclaimed.
func (r *Table5Result) Table() *stats.Table {
	headers := []string{"Selection Policy"}
	for _, d := range r.DenseFractions {
		headers = append(headers, fmt.Sprintf("C = %.3f", 1+d))
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
