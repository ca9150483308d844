package stats

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.StdDev != 0 {
		t.Fatalf("Summarize(nil) = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.StdDev != 0 || s.Min != 42 || s.Max != 42 {
		t.Fatalf("Summarize single = %+v", s)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	// 2, 4, 4, 4, 5, 5, 7, 9: mean 5, sample variance 32/7.
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !approx(s.Mean, 5) {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if !approx(s.StdDev, math.Sqrt(32.0/7.0)) {
		t.Errorf("StdDev = %v, want %v", s.StdDev, math.Sqrt(32.0/7.0))
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestRatio(t *testing.T) {
	s := Summary{Mean: 10}
	if !approx(s.Ratio(4), 2.5) {
		t.Errorf("Ratio = %v", s.Ratio(4))
	}
	if !math.IsNaN(s.Ratio(0)) {
		t.Error("Ratio(0) should be NaN")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{Mean: 12.34, StdDev: 1.29}
	if got := s.String(); got != "12.3 ± 1.3" {
		t.Fatalf("String = %q", got)
	}
}

// TestSummarizeProperties checks mean/min/max/stddev invariants on random
// samples.
func TestSummarizeProperties(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, int(n)+2)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		s := Summarize(xs)
		if s.Mean < s.Min || s.Mean > s.Max {
			return false
		}
		if s.StdDev < 0 {
			return false
		}
		// Shifting by a constant shifts the mean and preserves stddev.
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + 1000
		}
		s2 := Summarize(shifted)
		return approx(s2.Mean, s.Mean+1000) && math.Abs(s2.StdDev-s.StdDev) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Throughput", "Policy", "Mean", "Std Dev")
	tb.AddRow("NoCollection", "36836.0", "5582.0")
	tb.AddRow("MostGarbage", "32860", "5426")
	out := tb.String()
	if !strings.Contains(out, "Throughput") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "NoCollection") || !strings.Contains(out, "36836.0") {
		t.Errorf("missing row data:\n%s", out)
	}
	if !strings.Contains(out, "32860") {
		t.Errorf("second row not rendered:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Aligned columns: header and rows have identical width.
	if len(lines[1]) != len(lines[3]) || len(lines[3]) != len(lines[4]) {
		t.Errorf("misaligned rows:\n%s", out)
	}
}

func TestTableRowClamping(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRow("1", "2", "3") // extra cell dropped
	tb.AddRow("only")        // short row ok
	out := tb.String()
	if strings.Contains(out, "3") {
		t.Errorf("extra cell rendered:\n%s", out)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("events", "a", "b")
	s.Add(0, 1.0, 2.0)
	s.Add(100, 3.5, 4.25)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "events,a,b\n0,1.00,2.00\n100,3.50,4.25\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
	path := filepath.Join(t.TempDir(), "series.csv")
	if err := s.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != want {
		t.Fatalf("CSV file = %q (err %v), want %q", got, err, want)
	}
}

func TestSeriesAddArityPanics(t *testing.T) {
	s := NewSeries("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	s.Add(1, 1.0)
}

func TestNaNRendering(t *testing.T) {
	nan := math.NaN()
	if got := (Summary{Mean: nan, StdDev: nan}).String(); got != "n/a" {
		t.Errorf("NaN summary renders %q, want n/a", got)
	}
	if got := (Summary{Mean: 3.14, StdDev: 0.5}).String(); got != "3.1 ± 0.5" {
		t.Errorf("finite summary renders %q", got)
	}
	if got := FormatFloat(nan, 3); got != "n/a" {
		t.Errorf("FormatFloat(NaN) = %q, want n/a", got)
	}
	if got := FormatFloat(1.2345, 2); got != "1.23" {
		t.Errorf("FormatFloat(1.2345, 2) = %q", got)
	}
}

func TestInfRendering(t *testing.T) {
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		if got := (Summary{Mean: inf, StdDev: 0}).String(); got != "n/a" {
			t.Errorf("Summary{Mean: %v}.String() = %q, want n/a", inf, got)
		}
		if got := (Summary{Mean: 1, StdDev: inf}).String(); got != "n/a" {
			t.Errorf("Summary{StdDev: %v}.String() = %q, want n/a", inf, got)
		}
		if got := FormatFloat(inf, 2); got != "n/a" {
			t.Errorf("FormatFloat(%v) = %q, want n/a", inf, got)
		}
	}
}

// Non-finite samples must become empty CSV cells, never literal "NaN" or
// "+Inf" tokens that break numeric parsers downstream.
func TestSeriesCSVNonFiniteCells(t *testing.T) {
	s := NewSeries("events", "a", "b")
	s.Add(0, math.NaN(), 2.0)
	s.Add(100, math.Inf(1), math.Inf(-1))
	s.Add(200, 1.25, 3.0)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "events,a,b\n0,,2.00\n100,,\n200,1.25,3.00\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
	for _, tok := range []string{"NaN", "Inf"} {
		if strings.Contains(b.String(), tok) {
			t.Errorf("CSV leaks literal %q:\n%s", tok, b.String())
		}
	}
}
