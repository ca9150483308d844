package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table renders aligned text tables in the style of the paper's Tables 2–5.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.headers) {
		cells = cells[:len(t.headers)]
	}
	t.rows = append(t.rows, cells)
}

// WriteTo renders the table. The first column is left-aligned, the rest
// right-aligned.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, wd := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", wd, c)
			} else {
				fmt.Fprintf(&b, "  %*s", wd, c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, wd := range widths {
		total += wd
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteTo(&b) //nolint:errcheck // strings.Builder never fails
	return b.String()
}

// Series is a set of named columns sampled against a shared x-axis, used
// for the paper's time-varying plots (Figures 4–6).
type Series struct {
	// XName labels the x column (e.g. "events").
	XName string
	// Names labels the y columns (e.g. one per policy).
	Names []string
	X     []int64
	// Y[i] is the column for Names[i]; all columns share len(X).
	Y [][]float64
}

// NewSeries returns an empty series with the given column names.
func NewSeries(xName string, names ...string) *Series {
	return &Series{XName: xName, Names: names, Y: make([][]float64, len(names))}
}

// Add appends one sample row. It panics if len(ys) != len(s.Names).
func (s *Series) Add(x int64, ys ...float64) {
	if len(ys) != len(s.Names) {
		panic(fmt.Sprintf("stats: Series.Add got %d values, want %d", len(ys), len(s.Names))) //odbgc:alloc-ok panic path
	}
	s.X = append(s.X, x)
	for i, y := range ys {
		s.Y[i] = append(s.Y[i], y)
	}
}

// Len reports the number of sample rows.
func (s *Series) Len() int { return len(s.X) }

// WriteCSV emits the series as CSV with a header row.
func (s *Series) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(s.XName)
	for _, n := range s.Names {
		b.WriteByte(',')
		b.WriteString(n)
	}
	b.WriteByte('\n')
	for i, x := range s.X {
		fmt.Fprintf(&b, "%d", x)
		for _, col := range s.Y {
			// NaN and ±Inf have no CSV representation most consumers
			// accept; emit an empty cell (the CSV idiom for "no value")
			// instead of a literal "NaN" that breaks numeric parsers.
			if math.IsNaN(col[i]) || math.IsInf(col[i], 0) {
				b.WriteByte(',')
			} else {
				fmt.Fprintf(&b, ",%.2f", col[i])
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
