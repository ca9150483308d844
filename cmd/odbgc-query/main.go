// Command odbgc-query filters, aggregates, and re-renders structured
// run recordings (.odbgcrec files written by experiments or gcsim
// -record).
//
// Usage:
//
//	odbgc-query [-table runs|activations|samples] [-where col=val,...]
//	            [-group col,...] [-agg op:col,...] [-csv] [-limit N] FILE
//	odbgc-query -info FILE
//	odbgc-query -figures DIR FILE
//	odbgc-query -html FILE.html FILE
//
// The default mode runs one query: equality filters (-where), group-by
// (-group), and aggregates (-agg, ops count/sum/mean/min/max) over one
// table, printed aligned or as CSV (-csv). Activation and sample rows
// are implicitly joined to their run's identity columns (label, family,
// policy, point, seed), so
//
//	odbgc-query -where policy=UpdatedPointer -group partition -agg sum:garbage_bytes run.odbgcrec
//
// sums reclaimed garbage per chosen partition for one policy.
//
// -info summarizes the file; -figures regenerates the Figure 4–6 CSV
// files from the recording alone, bit-identical to the files
// cmd/experiments emits directly; -html writes a self-contained HTML
// report with inline-SVG charts.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"odbgc/internal/record"
	"odbgc/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "odbgc-query:", err)
		os.Exit(1)
	}
}

// run is the whole command, separated from main so tests can drive it
// in-process with arbitrary arguments and capture its output.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("odbgc-query", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table   = fs.String("table", "activations", "table to query: runs, activations, or samples")
		where   = fs.String("where", "", "equality filters, comma-separated column=value pairs")
		group   = fs.String("group", "", "group-by columns, comma-separated")
		aggs    = fs.String("agg", "", "aggregates, comma-separated op:column (ops: count, sum, mean, min, max)")
		asCSV   = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		limit   = fs.Int("limit", 0, "cap output rows (0 = unlimited)")
		info    = fs.Bool("info", false, "print a summary of the recording instead of querying")
		figures = fs.String("figures", "", "regenerate the figure CSV files from the recording into this directory")
		htmlOut = fs.String("html", "", "write a self-contained HTML report to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one recording file argument, got %d (usage: odbgc-query [flags] FILE)", fs.NArg())
	}
	if *limit < 0 {
		return fmt.Errorf("-limit %d: row cap cannot be negative", *limit)
	}
	q := record.Query{Table: *table, Limit: *limit}
	var err error
	if q.Where, err = parseWhere(*where); err != nil {
		return err
	}
	if *group != "" {
		q.GroupBy = splitList(*group)
	}
	if q.Aggs, err = parseAggs(*aggs); err != nil {
		return err
	}

	f, err := record.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}

	did := false
	if *info {
		printInfo(stdout, fs.Arg(0), f)
		did = true
	}
	if *figures != "" {
		if err := os.MkdirAll(*figures, 0o755); err != nil {
			return err
		}
		written, err := f.WriteFigureCSVs(*figures)
		if err != nil {
			return fmt.Errorf("-figures %s: %w", *figures, err)
		}
		for _, p := range written {
			fmt.Fprintln(stdout, "regenerated ->", p)
		}
		did = true
	}
	if *htmlOut != "" {
		out, err := os.Create(*htmlOut)
		if err != nil {
			return err
		}
		if err := f.WriteHTMLReport(out); err != nil {
			out.Close()
			return fmt.Errorf("-html %s: %w", *htmlOut, err)
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "report ->", *htmlOut)
		did = true
	}
	if did {
		return nil
	}

	rs, err := f.Query(q)
	if err != nil {
		return err
	}
	if *asCSV {
		w := csv.NewWriter(stdout)
		if err := w.Write(rs.Cols); err != nil {
			return err
		}
		for _, row := range rs.Rows {
			if err := w.Write(row); err != nil {
				return err
			}
		}
		w.Flush()
		return w.Error()
	}
	t := stats.NewTable("", rs.Cols...)
	for _, row := range rs.Rows {
		t.AddRow(row...)
	}
	fmt.Fprint(stdout, t)
	fmt.Fprintf(stdout, "(%d rows)\n", len(rs.Rows))
	return nil
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseWhere parses "col=val,col=val" into conditions.
func parseWhere(s string) ([]record.Cond, error) {
	var conds []record.Cond
	for _, p := range splitList(s) {
		col, val, ok := strings.Cut(p, "=")
		if !ok || col == "" {
			return nil, fmt.Errorf("-where %q: want column=value", p)
		}
		conds = append(conds, record.Cond{Col: col, Val: val})
	}
	return conds, nil
}

// parseAggs parses "op:col,op:col" (bare "count" allowed) into
// aggregates.
func parseAggs(s string) ([]record.Agg, error) {
	var aggs []record.Agg
	for _, p := range splitList(s) {
		op, col, ok := strings.Cut(p, ":")
		if !ok {
			if op == "count" {
				aggs = append(aggs, record.Agg{Op: "count"})
				continue
			}
			return nil, fmt.Errorf("-agg %q: want op:column (or bare count)", p)
		}
		aggs = append(aggs, record.Agg{Op: op, Col: col})
	}
	return aggs, nil
}

// printInfo summarizes the recording: table sizes plus one line per run.
func printInfo(stdout io.Writer, path string, f *record.File) {
	fmt.Fprintf(stdout, "%s: %d runs, %d activations, %d samples, %d dictionary strings\n",
		path, f.Runs.Rows(), f.Activations.Rows(), f.Samples.Rows(), len(f.Strings))
	if f.Runs.Rows() == 0 {
		return
	}
	t := stats.NewTable("", "run", "label", "policy", "shard", "events", "collections", "total_ios")
	for i := 0; i < f.Runs.Rows(); i++ {
		t.AddRow(
			f.Runs.Col("run").Value(i),
			f.Runs.Col("label").Value(i),
			f.Runs.Col("policy").Value(i),
			f.Runs.Col("shard").Value(i),
			f.Runs.Col("events").Value(i),
			f.Runs.Col("collections").Value(i),
			f.Runs.Col("total_ios").Value(i))
	}
	fmt.Fprint(stdout, t)
}
