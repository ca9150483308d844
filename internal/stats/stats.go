// Package stats provides the small statistical and reporting toolkit the
// experiment harness uses: mean/standard-deviation summaries over
// multi-seed runs, time series for the paper's figures, aligned text
// tables matching the paper's layout, and CSV output for plotting.
package stats

import (
	"fmt"
	"math"
)

// Summary describes a sample of observations.
type Summary struct {
	N    int
	Mean float64
	// StdDev is the sample standard deviation (n−1 denominator), matching
	// how the paper reports run-to-run variation across its 10 seeds.
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero
// Summary; a single observation has zero standard deviation.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Ratio returns s.Mean divided by base, the paper's "Relative" columns
// (normalized to MostGarbage = 1). It returns NaN for a zero base.
func (s Summary) Ratio(base float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return s.Mean / base
}

// String formats the summary as "mean ± stddev", or "n/a" when the
// sample is undefined (NaN or infinite mean or deviation).
func (s Summary) String() string {
	if math.IsNaN(s.Mean) || math.IsNaN(s.StdDev) ||
		math.IsInf(s.Mean, 0) || math.IsInf(s.StdDev, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f ± %.1f", s.Mean, s.StdDev)
}

// FormatFloat renders v with prec decimal places for table cells,
// printing "n/a" instead of "NaN" or "±Inf" for undefined values (e.g.
// a Ratio over a zero base).
func FormatFloat(v float64, prec int) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%.*f", prec, v)
}
