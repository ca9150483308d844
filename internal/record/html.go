package record

import (
	"fmt"
	"html"
	"io"
	"strings"

	"odbgc/internal/stats"
)

// WriteHTMLReport renders a self-contained HTML report of the
// recording: a run summary table plus inline-SVG line charts — the
// Figure 4–6 panels when the recording holds those families, and a
// generic per-run database-size panel otherwise. No scripts, no
// external assets; the output is a single static file.
func (f *File) WriteHTMLReport(w io.Writer) error {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>odbgc run recording</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 72em; color: #222; }
h1, h2 { font-weight: 600; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: right; }
th { background: #f3f3f3; }
td:first-child, th:first-child { text-align: left; }
figure { margin: 1.5em 0; }
figcaption { font-weight: 600; margin-bottom: 0.5em; }
.legend span { margin-right: 1.2em; }
</style>
</head>
<body>
<h1>odbgc run recording</h1>
`)
	fmt.Fprintf(&b, "<p>%d runs, %d activations, %d samples.</p>\n",
		f.Runs.Rows(), f.Activations.Rows(), f.Samples.Rows())

	writeRunTable(&b, f)

	figures := 0
	if runs := f.figureRuns("fig45"); len(runs) > 0 {
		if garbage, dbsize, err := Figures45(runs); err != nil {
			fmt.Fprintf(&b, "<p>Figure 4/5 panels unavailable: %s</p>\n", html.EscapeString(err.Error()))
		} else {
			writeChart(&b, "Figure 4: unreclaimed garbage (KB) vs application events", garbage)
			writeChart(&b, "Figure 5: database size (KB) vs application events", dbsize)
			figures++
		}
	}
	if runs := f.figureRuns("fig6"); len(runs) > 0 {
		if s, err := Figure6(runs); err != nil {
			fmt.Fprintf(&b, "<p>Figure 6 panel unavailable: %s</p>\n", html.EscapeString(err.Error()))
		} else {
			writeChart(&b, "Figure 6: storage required (MB) vs maximum allocated storage (MB)", s)
			figures++
		}
	}
	if figures == 0 {
		writeGenericChart(&b, f)
	}

	b.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeRunTable renders the run summary.
func writeRunTable(b *strings.Builder, f *File) {
	b.WriteString("<h2>Runs</h2>\n<table>\n<tr>")
	cols := []string{"run", "label", "policy", "shard", "events", "collections", "declined",
		"app_ios", "gc_ios", "reclaimed_bytes", "max_occupied_bytes"}
	for _, c := range cols {
		fmt.Fprintf(b, "<th>%s</th>", html.EscapeString(c))
	}
	b.WriteString("</tr>\n")
	for i := 0; i < f.Runs.Rows(); i++ {
		b.WriteString("<tr>")
		for _, c := range cols {
			fmt.Fprintf(b, "<td>%s</td>", html.EscapeString(f.Runs.Col(c).Value(i)))
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table>\n")
}

// chartPalette cycles through distinguishable stroke colors.
var chartPalette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f",
}

// writeChart renders one series as an inline SVG line chart with a
// min/max-labeled frame and a color legend.
func writeChart(b *strings.Builder, title string, s *stats.Series) {
	if s.Len() == 0 {
		return
	}
	const w, h, pad = 720, 320, 40
	xmin, xmax := s.X[0], s.X[0]
	for _, x := range s.X {
		xmin, xmax = min(xmin, x), max(xmax, x)
	}
	ymin, ymax := s.Y[0][0], s.Y[0][0]
	for _, col := range s.Y {
		for _, y := range col {
			ymin, ymax = min(ymin, y), max(ymax, y)
		}
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	sx := func(x int64) float64 {
		return pad + float64(x-xmin)/float64(xmax-xmin)*(w-2*pad)
	}
	sy := func(y float64) float64 {
		return h - pad - (y-ymin)/(ymax-ymin)*(h-2*pad)
	}
	fmt.Fprintf(b, "<figure>\n<figcaption>%s</figcaption>\n", html.EscapeString(title))
	fmt.Fprintf(b, `<svg viewBox="0 0 %d %d" width="%d" height="%d" role="img">`+"\n", w, h, w, h)
	fmt.Fprintf(b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#999"/>`+"\n",
		pad, pad, w-2*pad, h-2*pad)
	for i, col := range s.Y {
		var pts strings.Builder
		for j, y := range col {
			if j > 0 {
				pts.WriteByte(' ')
			}
			fmt.Fprintf(&pts, "%.1f,%.1f", sx(s.X[j]), sy(y))
		}
		color := chartPalette[i%len(chartPalette)]
		fmt.Fprintf(b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n", pts.String(), color)
	}
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11" text-anchor="end">%.1f</text>`+"\n", pad-4, pad+4, ymax)
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11" text-anchor="end">%.1f</text>`+"\n", pad-4, h-pad, ymin)
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11">%d</text>`+"\n", pad, h-pad+14, xmin)
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11" text-anchor="end">%d</text>`+"\n", w-pad, h-pad+14, xmax)
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11" text-anchor="middle">%s</text>`+"\n",
		w/2, h-6, html.EscapeString(s.XName))
	b.WriteString("</svg>\n")
	b.WriteString(`<div class="legend">`)
	for i, name := range s.Names {
		color := chartPalette[i%len(chartPalette)]
		fmt.Fprintf(b, `<span style="color:%s">&#9644; %s</span>`, color, html.EscapeString(name))
	}
	b.WriteString("</div>\n</figure>\n")
}

// writeGenericChart plots the database size of the first sampled runs
// when the recording holds no figure families — enough to eyeball any
// run. It is Figure 5's builder with one column per run.
func writeGenericChart(b *strings.Builder, f *File) {
	const maxRuns = 8
	ids, labels := f.Runs.Col("run"), f.Runs.Col("label")
	var runs []FigureRun
	for i, r := range f.figureRuns("") {
		if len(runs) == maxRuns {
			break
		}
		if len(r.Result.Samples) > 0 {
			r.Policy = fmt.Sprintf("%s (run %d)", labels.S[i], ids.I[i])
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return
	}
	if _, dbsize, err := Figures45(runs); err != nil {
		fmt.Fprintf(b, "<p>Database size panel unavailable: %s</p>\n", html.EscapeString(err.Error()))
	} else {
		writeChart(b, "Database size (KB) vs application events, per sampled run", dbsize)
	}
}
