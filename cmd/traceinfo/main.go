// Command traceinfo inspects a chunked trace file produced by tracegen:
// event counts by kind, allocation volume, object-size distribution, and
// the edge read/write ratio, followed by a per-chunk summary table
// (events, payload bytes, kind histogram, CRC status). -chunk N drills
// into a single chunk without reading the rest of the file, and -chunk
// LO-HI drills into a contiguous range. -shards N previews how the
// sharded engine would split the trace: a per-chunk histogram of events
// by shard under the chosen -shard-assign policy. To replay the trace
// through a simulation, use gcsim -trace.
//
// Usage:
//
//	traceinfo [-chunk N|LO-HI] [-shards N]
//	          [-shard-assign roundrobin|range] trace.odbgcck
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"odbgc/internal/heap"
	"odbgc/internal/shard"
	"odbgc/internal/stats"
	"odbgc/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "traceinfo:", err)
		os.Exit(1)
	}
}

// run is the whole command, separated from main so tests can drive it
// in-process with arbitrary arguments and capture its output.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("traceinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chunkSpec := fs.String("chunk", "", "show chunk N, or chunks LO-HI (skips the others)")
	shards := fs.Int("shards", 0, "print a per-chunk histogram of events by shard for N shards")
	shAssign := fs.String("shard-assign", "", "tree-to-shard assignment for -shards: roundrobin or range")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: traceinfo [-chunk N|LO-HI] [-shards N] trace.odbgcck")
	}
	path := fs.Arg(0)

	chunkLo, chunkHi := -1, -1
	if *chunkSpec != "" {
		var err error
		chunkLo, chunkHi, err = parseChunkRange(*chunkSpec)
		if err != nil {
			return err
		}
	}
	assign := shard.RoundRobin
	switch {
	case *shards < 0:
		return fmt.Errorf("-shards %d: shard count cannot be negative", *shards)
	case *shards > shard.MaxShards:
		return fmt.Errorf("-shards %d exceeds the %d-shard cap (shard IDs pack into single bytes)", *shards, shard.MaxShards)
	case *shAssign != "" && *shards == 0:
		return errors.New("-shard-assign only applies with -shards")
	case *shAssign != "":
		var err error
		assign, err = shard.ParseAssignment(*shAssign)
		if err != nil {
			return err
		}
	}

	// Opening the stream checks the magic and every chunk header, with
	// errors naming the path.
	if _, err := trace.OpenChunkStream(path); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if *shards > 0 {
		return showShardHistogram(stdout, f, path, *shards, assign, chunkLo, chunkHi)
	}
	if chunkLo >= 0 {
		return showChunks(stdout, f, path, chunkLo, chunkHi)
	}

	cr := trace.NewChunkReader(bufio.NewReaderSize(f, 1<<20))
	var (
		st   = traceStats{minSize: 1 << 62, valueByLoc: map[[2]int64]heap.OID{}}
		c    trace.Chunk
		sums []chunkSummary
	)
	for {
		if err := cr.Next(&c); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		before := st.kinds
		if err := c.Replay(&st); err != nil {
			return err
		}
		sum := chunkSummary{index: c.Index, events: c.Len(), bytes: c.PayloadBytes()}
		for k := range sum.kinds {
			sum.kinds[k] = st.kinds[k] - before[k]
		}
		sums = append(sums, sum)
	}

	t := stats.NewTable("Trace: "+path, "Metric", "Value")
	t.AddRow("Events", fmt.Sprint(cr.Count()))
	t.AddRow("Creates", fmt.Sprint(st.kinds[trace.KindCreate]))
	t.AddRow("Roots", fmt.Sprint(st.kinds[trace.KindRoot]))
	t.AddRow("Reads", fmt.Sprint(st.kinds[trace.KindRead]))
	t.AddRow("Writes", fmt.Sprint(st.kinds[trace.KindWrite]))
	t.AddRow("Modifies", fmt.Sprint(st.kinds[trace.KindModify]))
	t.AddRow("Pointer overwrites", fmt.Sprint(st.overwrites))
	t.AddRow("Allocated bytes", fmt.Sprint(st.allocBytes))
	t.AddRow("Object size range", fmt.Sprintf("%d-%d", st.minSize, st.maxSize))
	t.AddRow(fmt.Sprintf("Objects >= %d B", largeCutoff), fmt.Sprint(st.large))
	if w := st.kinds[trace.KindWrite] + st.kinds[trace.KindCreate]; w > 0 {
		t.AddRow("Read/write ratio", fmt.Sprintf("%.1f", float64(st.kinds[trace.KindRead])/float64(w)))
	}
	fmt.Fprintln(stdout, t)

	// Every chunk that reached the summary survived its CRC check; a
	// mismatch aborts the scan above with an error naming the chunk.
	ct := stats.NewTable(fmt.Sprintf("Chunks: %d, fingerprint %#016x", len(sums), cr.Fingerprint()),
		"Chunk", "Events", "Payload B", "Creates", "Roots", "Reads", "Writes", "Modifies", "CRC")
	for _, s := range sums {
		ct.AddRow(fmt.Sprint(s.index), fmt.Sprint(s.events), fmt.Sprint(s.bytes),
			fmt.Sprint(s.kinds[trace.KindCreate]), fmt.Sprint(s.kinds[trace.KindRoot]),
			fmt.Sprint(s.kinds[trace.KindRead]), fmt.Sprint(s.kinds[trace.KindWrite]),
			fmt.Sprint(s.kinds[trace.KindModify]), "ok")
	}
	fmt.Fprintln(stdout, ct)
	return nil
}

// largeCutoff is the object size the summary counts as large.
const largeCutoff = 4096

// traceStats accumulates the whole-trace summary as events stream by.
type traceStats struct {
	kinds            [trace.KindModify + 1]int64
	allocBytes       int64
	minSize, maxSize int64
	large            int64
	overwrites       int64
	valueByLoc       map[[2]int64]heap.OID // (oid, field) -> last value
}

func (s *traceStats) Emit(e trace.Event) error {
	s.kinds[e.Kind]++
	switch e.Kind {
	case trace.KindCreate:
		s.allocBytes += e.Size
		if e.Size < s.minSize {
			s.minSize = e.Size
		}
		if e.Size > s.maxSize {
			s.maxSize = e.Size
		}
		if e.Size >= largeCutoff {
			s.large++
		}
		if e.Parent != heap.NilOID {
			s.valueByLoc[[2]int64{int64(e.Parent), int64(e.ParentField)}] = e.OID
		}
	case trace.KindWrite:
		loc := [2]int64{int64(e.OID), int64(e.Field)}
		if s.valueByLoc[loc] != heap.NilOID {
			s.overwrites++
		}
		s.valueByLoc[loc] = e.Target
	case trace.KindRoot, trace.KindRead, trace.KindModify:
		// Counted in the per-kind totals above; no size or overwrite
		// bookkeeping applies.
	}
	return nil
}

// parseChunkRange parses a -chunk argument: a single chunk index "N" or
// an inclusive range "LO-HI".
func parseChunkRange(spec string) (lo, hi int, err error) {
	s, rest, isRange := strings.Cut(spec, "-")
	lo, err = strconv.Atoi(s)
	if err != nil || lo < 0 {
		return 0, 0, fmt.Errorf("-chunk %q: want a chunk index N or an inclusive range LO-HI", spec)
	}
	if !isRange {
		return lo, lo, nil
	}
	hi, err = strconv.Atoi(rest)
	if err != nil || hi < lo {
		return 0, 0, fmt.Errorf("-chunk %q: want LO-HI with 0 <= LO <= HI", spec)
	}
	return lo, hi, nil
}

// showChunks seeks to chunk lo of a chunked trace — skipping earlier
// chunks without CRC-verifying or decoding them — and prints the detail
// of every chunk through hi.
func showChunks(stdout io.Writer, f *os.File, path string, lo, hi int) error {
	cr := trace.NewChunkReader(bufio.NewReaderSize(f, 1<<20))
	for i := 0; i < lo; i++ {
		if err := cr.SkipChunk(); err != nil {
			if errors.Is(err, io.EOF) {
				return fmt.Errorf("-chunk %d: %s has only %d chunks", lo, path, i)
			}
			return err
		}
	}
	for n := lo; n <= hi; n++ {
		var c trace.Chunk
		if err := cr.Next(&c); err != nil {
			if errors.Is(err, io.EOF) {
				if n == lo {
					return fmt.Errorf("-chunk %d: %s has only %d chunks", lo, path, n)
				}
				return fmt.Errorf("-chunk %d-%d: range runs past the last chunk; %s has only %d chunks (chunks %d-%d shown above)",
					lo, hi, path, n, lo, n-1)
			}
			return err
		}
		var sink kindCountSink
		if err := c.Replay(&sink); err != nil {
			return err
		}
		t := stats.NewTable(fmt.Sprintf("Chunk %d of %s", n, path), "Metric", "Value")
		t.AddRow("Events", fmt.Sprint(c.Len()))
		t.AddRow("Payload bytes", fmt.Sprint(c.PayloadBytes()))
		t.AddRow("Fingerprint", fmt.Sprintf("%#016x", c.Fingerprint))
		t.AddRow("CRC", "ok")
		t.AddRow("Creates", fmt.Sprint(sink.kinds[trace.KindCreate]))
		t.AddRow("Roots", fmt.Sprint(sink.kinds[trace.KindRoot]))
		t.AddRow("Reads", fmt.Sprint(sink.kinds[trace.KindRead]))
		t.AddRow("Writes", fmt.Sprint(sink.kinds[trace.KindWrite]))
		t.AddRow("Modifies", fmt.Sprint(sink.kinds[trace.KindModify]))
		fmt.Fprintln(stdout, t)
	}
	return nil
}

// showShardHistogram routes every event of a chunked trace through a
// shard router and prints, for each chunk in the selected range (all
// chunks when no -chunk was given), how many of its events land on each
// shard. The whole file is scanned from chunk 0 regardless of the range:
// routing is stateful — a chunk's events route by where earlier chunks
// created their trees.
func showShardHistogram(stdout io.Writer, f *os.File, path string, shards int, assign shard.Assignment, lo, hi int) error {
	r, err := shard.NewRouter(shards, assign, 0)
	if err != nil {
		return err
	}
	cr := trace.NewChunkReader(bufio.NewReaderSize(f, 1<<20))
	type histRow struct {
		index   int
		events  int
		byShard []int64
	}
	var rows []histRow
	totals := make([]int64, shards)
	var c trace.Chunk
	chunks := 0
	for ; ; chunks++ {
		if err := cr.Next(&c); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		byShard := make([]int64, shards)
		var routeErr error
		if err := c.Replay(collectFunc(func(e trace.Event) {
			s, err := r.Route(e)
			if err != nil {
				if routeErr == nil {
					routeErr = err
				}
				return
			}
			byShard[s]++
		})); err != nil {
			return err
		}
		if routeErr != nil {
			return fmt.Errorf("chunk %d: %w", chunks, routeErr)
		}
		for s, n := range byShard {
			totals[s] += n
		}
		if lo < 0 || (chunks >= lo && chunks <= hi) {
			rows = append(rows, histRow{index: chunks, events: c.Len(), byShard: byShard})
		}
	}
	switch {
	case lo >= chunks:
		return fmt.Errorf("-chunk %d: %s has only %d chunks", lo, path, chunks)
	case lo >= 0 && hi >= chunks:
		return fmt.Errorf("-chunk %d-%d: range runs past the last chunk; %s has only %d chunks", lo, hi, path, chunks)
	}

	cols := []string{"Chunk", "Events"}
	for s := 0; s < shards; s++ {
		cols = append(cols, fmt.Sprintf("S%d", s))
	}
	t := stats.NewTable(fmt.Sprintf("Shard assignment: %d shards (%s), %d chunks, %d trees",
		shards, assign, chunks, r.Trees()), cols...)
	for _, row := range rows {
		cells := []string{fmt.Sprint(row.index), fmt.Sprint(row.events)}
		for _, n := range row.byShard {
			cells = append(cells, fmt.Sprint(n))
		}
		t.AddRow(cells...)
	}
	var total, max int64
	for _, n := range totals {
		total += n
		if n > max {
			max = n
		}
	}
	cells := []string{"total", fmt.Sprint(total)}
	for _, n := range totals {
		cells = append(cells, fmt.Sprint(n))
	}
	t.AddRow(cells...)
	fmt.Fprintln(stdout, t)
	if total > 0 {
		fmt.Fprintf(stdout, "event imbalance %.3f (max shard / mean)\n",
			float64(max)*float64(shards)/float64(total))
	}
	return nil
}

// kindCountSink tallies replayed events by kind.
type kindCountSink struct{ kinds [trace.KindModify + 1]int64 }

func (s *kindCountSink) Emit(e trace.Event) error {
	s.kinds[e.Kind]++
	return nil
}

// chunkSummary is one chunk's row of the per-chunk table.
type chunkSummary struct {
	index  int
	events int
	bytes  int
	kinds  [trace.KindModify + 1]int64
}

// collectFunc adapts a function to the trace.Sink interface.
type collectFunc func(trace.Event)

func (f collectFunc) Emit(e trace.Event) error {
	f(e)
	return nil
}
