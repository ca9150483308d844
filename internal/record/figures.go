package record

import (
	"fmt"
	"path/filepath"
	"slices"

	"odbgc/internal/sim"
	"odbgc/internal/stats"
)

// The Figure 4–6 series and gcsim's single-run time series are built
// here and nowhere else. cmd/experiments feeds the builders its
// in-memory results; odbgc-query feeds them the same raw int64 counts
// read back from a recording, in the same run order, so the figure CSVs
// a recording regenerates equal the directly emitted ones byte for byte.

// FigureRun is one run's input to the figure builders. Runs are listed
// in submission order.
type FigureRun struct {
	// Policy names the run's column.
	Policy string
	// Point is the run's Figure 6 sweep point (maximum allocated MB).
	Point int64
	// Result supplies Samples (Figures 4 and 5) and MaxOccupiedBytes
	// (Figure 6); the builders read nothing else.
	Result sim.Result
}

// kb is the one byte-to-KB conversion behind every figure value.
func kb(bytes int64) float64 { return float64(bytes) / 1024 }

// TimeSeries renders one run's samples as a time series over
// application events: occupied, live, unreclaimed garbage and footprint
// KB.
func TimeSeries(samples []sim.SampleRecord) *stats.Series {
	s := stats.NewSeries("events", "occupied_kb", "live_kb", "unreclaimed_garbage_kb", "footprint_kb")
	for _, r := range samples {
		s.Add(r.Events, kb(r.OccupiedBytes), kb(r.LiveBytes), kb(r.OccupiedBytes-r.LiveBytes), kb(r.FootprintBytes))
	}
	return s
}

// Figures45 builds Figure 4 (unreclaimed garbage KB) and Figure 5
// (database size KB) over application events: one column per run, in
// run order, truncated to the shortest sample count. The runs replay one
// trace, so their sample grids agree and the x values are the first
// run's.
func Figures45(runs []FigureRun) (garbage, dbsize *stats.Series, err error) {
	if len(runs) == 0 {
		return nil, nil, fmt.Errorf("record: no runs for Figures 4 and 5")
	}
	names := make([]string, len(runs))
	n := 0
	for i, r := range runs {
		names[i] = r.Policy
		if len(r.Result.Samples) == 0 {
			return nil, nil, fmt.Errorf("record: figure run %s has no samples", r.Policy)
		}
		if i == 0 || len(r.Result.Samples) < n {
			n = len(r.Result.Samples)
		}
	}
	garbage = stats.NewSeries("events", names...)
	dbsize = stats.NewSeries("events", names...)
	gs := make([]float64, len(runs))
	ds := make([]float64, len(runs))
	for i := 0; i < n; i++ {
		for p, r := range runs {
			s := r.Result.Samples[i]
			gs[p] = kb(s.OccupiedBytes - s.LiveBytes)
			ds[p] = kb(s.OccupiedBytes)
		}
		x := runs[0].Result.Samples[i].Events
		garbage.Add(x, gs...)
		dbsize.Add(x, ds...)
	}
	return garbage, dbsize, nil
}

// Figure6 builds Figure 6 (storage required MB against maximum allocated
// MB): sweep points and policies in first-seen run order, each cell the
// mean maximum storage over that point's and policy's runs (the seeds).
func Figure6(runs []FigureRun) (*stats.Series, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("record: no runs for Figure 6")
	}
	type cell struct {
		point  int64
		policy string
	}
	var points []int64
	var policies []string
	cells := make(map[cell][]float64) // per-seed maximum storage KB
	for _, r := range runs {
		if !slices.Contains(points, r.Point) {
			points = append(points, r.Point)
		}
		if !slices.Contains(policies, r.Policy) {
			policies = append(policies, r.Policy)
		}
		c := cell{r.Point, r.Policy}
		cells[c] = append(cells[c], kb(r.Result.MaxOccupiedBytes))
	}
	s := stats.NewSeries("max_allocated_mb", policies...)
	for _, p := range points {
		ys := make([]float64, len(policies))
		for q, policy := range policies {
			xs := cells[cell{p, policy}]
			if len(xs) == 0 {
				return nil, fmt.Errorf("record: Figure 6 has no runs for point %d policy %s", p, policy)
			}
			ys[q] = stats.Summarize(xs).Mean / 1024
		}
		s.Add(p, ys...)
	}
	return s, nil
}

// figureRuns returns the recording's runs of one family (every run when
// family is ""), in run-ID (submission) order, as figure-builder input.
func (f *File) figureRuns(family string) []FigureRun {
	col := func(name string) []int64 { return f.Samples.Col(name).I }
	run, seq, events := col("run"), col("seq"), col("events")
	occ, live, foot := col("occupied_bytes"), col("live_bytes"), col("footprint_bytes")
	app, gcIOs, alloc := col("app_ios"), col("gc_ios"), col("total_allocated_bytes")
	samples := make(map[int64][]sim.SampleRecord)
	for i, id := range run {
		samples[id] = append(samples[id], sim.SampleRecord{
			Seq: seq[i], Events: events[i],
			OccupiedBytes: occ[i], LiveBytes: live[i], FootprintBytes: foot[i],
			AppIOs: app[i], GCIOs: gcIOs[i], TotalAllocatedBytes: alloc[i],
		})
	}
	ids, fams, pols := f.Runs.Col("run"), f.Runs.Col("family"), f.Runs.Col("policy")
	points, maxOcc := f.Runs.Col("point"), f.Runs.Col("max_occupied_bytes")
	var out []FigureRun
	for i := 0; i < f.Runs.Rows(); i++ {
		if family != "" && fams.S[i] != family {
			continue
		}
		out = append(out, FigureRun{
			Policy: pols.S[i],
			Point:  points.I[i],
			Result: sim.Result{MaxOccupiedBytes: maxOcc.I[i], Samples: samples[ids.I[i]]},
		})
	}
	return out
}

// WriteFigureCSVs regenerates the figure CSV files cmd/experiments
// emits — figure4_unreclaimed_garbage.csv and figure5_database_size.csv
// from the fig45 samples, figure6_storage_required.csv from the fig6
// runs — into dir, writing whichever families the recording contains.
// It returns the paths written, and errors when the recording contains
// neither family.
func (f *File) WriteFigureCSVs(dir string) ([]string, error) {
	var written []string
	writeCSV := func(name string, s *stats.Series) error {
		path := filepath.Join(dir, name)
		if err := s.WriteCSVFile(path); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}
	if runs := f.figureRuns("fig45"); len(runs) > 0 {
		garbage, dbsize, err := Figures45(runs)
		if err != nil {
			return written, err
		}
		if err := writeCSV("figure4_unreclaimed_garbage.csv", garbage); err != nil {
			return written, err
		}
		if err := writeCSV("figure5_database_size.csv", dbsize); err != nil {
			return written, err
		}
	}
	if runs := f.figureRuns("fig6"); len(runs) > 0 {
		s, err := Figure6(runs)
		if err != nil {
			return written, err
		}
		if err := writeCSV("figure6_storage_required.csv", s); err != nil {
			return written, err
		}
	}
	if len(written) == 0 {
		return nil, fmt.Errorf("record: recording has no fig45 or fig6 runs to regenerate figures from")
	}
	return written, nil
}
