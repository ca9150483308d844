package record

import (
	"bytes"
	"strings"
	"testing"

	"odbgc/internal/sim"
)

// testRecorder builds a small two-run recording by hand: one finished
// run with activations and samples, one finished bare run, plus one
// unfinished run that must not appear in the file.
func testRecorder() *Recorder {
	rec := NewRecorder()

	r0 := rec.NewRun(MetaFromLabel("tables/UpdatedPointer/seed 3", "UpdatedPointer"))
	hooks := r0.Hooks()
	hooks.Activation(sim.ActivationRecord{
		Seq: 1, Events: 100, Cause: sim.CauseOverwrite, Collected: true,
		Victim: 2, Dest: 5, GarbageBytes: 4096, GarbageObjects: 3,
		CopiedBytes: 1024, CopiedObjects: 1, GCReadIOs: 7, GCWriteIOs: 4,
		BufHits: 20, BufMisses: 11, AppReadIOs: 50, AppWriteIOs: 9,
		OccupiedBytes: 1 << 20,
	})
	hooks.Activation(sim.ActivationRecord{
		Seq: 2, Events: 230, Cause: sim.CauseAllocation, Collected: false,
		Victim: -1, Dest: -1,
	})
	r0.Finish(sim.Result{
		Policy: "UpdatedPointer", Events: 500, AppIOs: 60, GCIOs: 12, TotalIOs: 72,
		MaxOccupiedBytes: 1<<20 + 512, Collections: 1, Declined: 1,
		ReclaimedBytes: 4096, NumPartitions: 8,
		Samples: []sim.SampleRecord{{
			Seq: 1, Events: 200, OccupiedBytes: 1 << 20, LiveBytes: 1 << 19,
			FootprintBytes: 1<<20 + 4096, AppIOs: 55, GCIOs: 11, TotalAllocatedBytes: 2 << 20,
		}},
	})

	r1 := rec.NewRun(MetaFromLabel("fig45/Random", "Random"))
	r1.Finish(sim.Result{Policy: "Random", Events: 400, TotalIOs: 40})

	rec.NewRun(MetaFromLabel("tables/Random/seed 0", "Random")) // never finished
	return rec
}

func encode(t *testing.T, rec *Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	f, err := Read(encode(t, testRecorder()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got := f.Runs.Rows(); got != 2 {
		t.Fatalf("runs rows = %d, want 2 (unfinished run must be skipped)", got)
	}
	if got := f.Activations.Rows(); got != 2 {
		t.Fatalf("activations rows = %d, want 2", got)
	}
	if got := f.Samples.Rows(); got != 1 {
		t.Fatalf("samples rows = %d, want 1", got)
	}
	for col, want := range map[string]string{
		"label":  "tables/UpdatedPointer/seed 3",
		"family": "tables",
		"policy": "UpdatedPointer",
	} {
		if got := f.Runs.Col(col).Value(0); got != want {
			t.Errorf("runs.%s[0] = %q, want %q", col, got, want)
		}
	}
	if got := f.Runs.Col("seed").I[0]; got != 3 {
		t.Errorf("runs.seed[0] = %d, want 3", got)
	}
	if got := f.Runs.Col("shard").I[0]; got != -1 {
		t.Errorf("runs.shard[0] = %d, want -1 (unsharded)", got)
	}
	if got := f.Activations.Col("cause").S[0]; got != "overwrite" {
		t.Errorf("activations.cause[0] = %q, want overwrite", got)
	}
	if got := f.Activations.Col("cause").S[1]; got != "allocation" {
		t.Errorf("activations.cause[1] = %q, want allocation", got)
	}
	if got := f.Activations.Col("partition").I[1]; got != -1 {
		t.Errorf("declined activation partition = %d, want -1", got)
	}
	if got := f.Activations.Col("garbage_bytes").I[0]; got != 4096 {
		t.Errorf("garbage_bytes[0] = %d, want 4096", got)
	}
	if got := f.Samples.Col("live_bytes").I[0]; got != 1<<19 {
		t.Errorf("live_bytes[0] = %d, want %d", got, 1<<19)
	}
	if got := f.Runs.Col("run").I[1]; got != 1 {
		t.Errorf("second finished run id = %d, want 1", got)
	}
}

func TestMetaFromLabel(t *testing.T) {
	cases := []struct {
		label, policy string
		want          Meta
	}{
		{"tables/Random/seed 3", "Random",
			Meta{Label: "tables/Random/seed 3", Family: "tables", Policy: "Random", Seed: 3, Shard: -1}},
		{"fig45/Copied", "Copied",
			Meta{Label: "fig45/Copied", Family: "fig45", Policy: "Copied", Shard: -1}},
		{"fig6/8MB/Random/seed 2", "Random",
			Meta{Label: "fig6/8MB/Random/seed 2", Family: "fig6", Policy: "Random", Point: 8, Seed: 2, Shard: -1}},
		{"sens/trigger 150/Random/seed 1", "Random",
			Meta{Label: "sens/trigger 150/Random/seed 1", Family: "sens", Policy: "Random", Seed: 1, Shard: -1}},
	}
	for _, c := range cases {
		if got := MetaFromLabel(c.label, c.policy); got != c.want {
			t.Errorf("MetaFromLabel(%q) = %+v, want %+v", c.label, got, c.want)
		}
	}
}

func TestCorruptCRCNamesSegment(t *testing.T) {
	data := encode(t, testRecorder())
	// Flip one byte inside the first segment's payload (after the 8-byte
	// magic and 24-byte header).
	data[8+segHeaderSize] ^= 0xff
	_, err := Read(data)
	if err == nil {
		t.Fatal("Read accepted a corrupt payload")
	}
	if !strings.Contains(err.Error(), "segment 0") || !strings.Contains(err.Error(), "crc mismatch") {
		t.Fatalf("error %q does not name segment 0's crc mismatch", err)
	}
}

func TestTruncatedFileNamesSegment(t *testing.T) {
	data := encode(t, testRecorder())
	for _, cut := range []int{len(data) - 1, len(data) - trailerSize - 1, 12, 30} {
		_, err := Read(data[:cut])
		if err == nil {
			t.Fatalf("Read accepted a file truncated to %d bytes", cut)
		}
		if !strings.Contains(err.Error(), "record:") {
			t.Fatalf("truncation to %d: error %q lacks the record: prefix", cut, err)
		}
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read([]byte("not a record file")); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("Read of junk = %v, want bad magic error", err)
	}
}

func TestTamperedIndexRejected(t *testing.T) {
	data := encode(t, testRecorder())
	// The trailer pins the index offset; rewrite it to point elsewhere.
	off := len(data) - trailerSize
	data[off]++
	if _, err := Read(data); err == nil {
		t.Fatal("Read accepted a trailer whose index offset disagrees with the file")
	}
}

func TestQueryWhereGroupAgg(t *testing.T) {
	f, err := Read(encode(t, testRecorder()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	rs, err := f.Query(Query{
		Table:   "activations",
		Where:   []Cond{{Col: "policy", Val: "UpdatedPointer"}},
		GroupBy: []string{"cause"},
		Aggs:    []Agg{{Op: "count"}, {Op: "sum", Col: "garbage_bytes"}},
	})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	wantCols := []string{"cause", "count", "sum:garbage_bytes"}
	if len(rs.Cols) != len(wantCols) {
		t.Fatalf("cols = %v, want %v", rs.Cols, wantCols)
	}
	for i := range wantCols {
		if rs.Cols[i] != wantCols[i] {
			t.Fatalf("cols = %v, want %v", rs.Cols, wantCols)
		}
	}
	// Lexical group order: allocation before overwrite.
	if len(rs.Rows) != 2 || rs.Rows[0][0] != "allocation" || rs.Rows[1][0] != "overwrite" {
		t.Fatalf("rows = %v, want allocation then overwrite", rs.Rows)
	}
	if rs.Rows[1][1] != "1" || rs.Rows[1][2] != "4096" {
		t.Fatalf("overwrite group = %v, want count 1 sum 4096", rs.Rows[1])
	}
}

func TestQueryRowListingAndLimit(t *testing.T) {
	f, err := Read(encode(t, testRecorder()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	rs, err := f.Query(Query{Table: "runs", Limit: 1})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("limit 1 returned %d rows", len(rs.Rows))
	}
	if len(rs.Cols) != len(runsSchema) {
		t.Fatalf("runs listing has %d cols, want %d", len(rs.Cols), len(runsSchema))
	}
}

func TestQueryErrorsNameColumns(t *testing.T) {
	f, err := Read(encode(t, testRecorder()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if _, err := f.Query(Query{Where: []Cond{{Col: "nope", Val: "1"}}}); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("unknown where column: err = %v", err)
	}
	if _, err := f.Query(Query{Aggs: []Agg{{Op: "sum", Col: "cause"}}}); err == nil || !strings.Contains(err.Error(), "string column") {
		t.Errorf("sum over string column: err = %v", err)
	}
	if _, err := f.Query(Query{Aggs: []Agg{{Op: "median", Col: "seq"}}}); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("unknown op: err = %v", err)
	}
	if _, err := f.Query(Query{Table: "bogus"}); err == nil || !strings.Contains(err.Error(), "no table") {
		t.Errorf("unknown table: err = %v", err)
	}
}

func TestQueryJoinsRunColumnsOntoSamples(t *testing.T) {
	f, err := Read(encode(t, testRecorder()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	rs, err := f.Query(Query{
		Table: "samples",
		Where: []Cond{{Col: "family", Val: "tables"}, {Col: "seed", Val: "3"}},
	})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("joined filter matched %d rows, want 1", len(rs.Rows))
	}
}

func TestHTMLReport(t *testing.T) {
	f, err := Read(encode(t, testRecorder()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	var buf bytes.Buffer
	if err := f.WriteHTMLReport(&buf); err != nil {
		t.Fatalf("WriteHTMLReport: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"<!DOCTYPE html>", "UpdatedPointer", "<svg", "</html>"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q", want)
		}
	}
}

// TestTimeSeries pins the single-run time series: one row per sample at
// its event count, sizes in KB, unreclaimed garbage = occupied - live.
func TestTimeSeries(t *testing.T) {
	s := TimeSeries([]sim.SampleRecord{
		{Seq: 1, Events: 100, OccupiedBytes: 3072, LiveBytes: 1024, FootprintBytes: 4096},
		{Seq: 2, Events: 200, OccupiedBytes: 5120, LiveBytes: 5120, FootprintBytes: 8192},
	})
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "events,occupied_kb,live_kb,unreclaimed_garbage_kb,footprint_kb\n" +
		"100,3.00,1.00,2.00,4.00\n" +
		"200,5.00,5.00,0.00,8.00\n"
	if got := buf.String(); got != want {
		t.Fatalf("time series CSV:\n%s\nwant:\n%s", got, want)
	}
}

func TestLargeTableSplitsSegments(t *testing.T) {
	rec := NewRecorder()
	r := rec.NewRun(Meta{Label: "big", Family: "big", Policy: "Random", Shard: -1})
	hooks := r.Hooks()
	const rows = maxSegRows + 100
	for i := 0; i < rows; i++ {
		hooks.Activation(sim.ActivationRecord{Seq: int64(i + 1), Events: int64(i), Collected: true, Victim: int64(i % 7)})
	}
	r.Finish(sim.Result{Policy: "Random"})
	f, err := Read(encode(t, rec))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got := f.Activations.Rows(); got != rows {
		t.Fatalf("activations rows = %d, want %d", got, rows)
	}
	if got := f.Activations.Col("seq").I[rows-1]; got != rows {
		t.Fatalf("last seq = %d, want %d", got, rows)
	}
}
