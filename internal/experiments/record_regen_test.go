package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"odbgc/internal/record"
	"odbgc/internal/stats"
)

// TestRecordRegeneratesFigureCSVsBitIdentically is the recording
// tentpole's acceptance check at test scale: the figure CSV files
// regenerated by odbgc-query's engine from a suite recording alone must
// be byte-for-byte identical to the files the suite emits directly from
// its in-memory results.
func TestRecordRegeneratesFigureCSVsBitIdentically(t *testing.T) {
	cfgs := scaledSuite()
	opts := SuiteOptions{
		Seeds:     2,
		Workers:   4,
		Figures45: true,
		Figure6:   true,
		Record:    record.NewRecorder(),
	}
	res, err := runSuite(opts, cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Figures == nil || res.Figure6 == nil {
		t.Fatal("figure families missing from suite result")
	}

	direct := map[string]string{
		"figure4_unreclaimed_garbage.csv": csvOf(t, res.Figures.Garbage),
		"figure5_database_size.csv":       csvOf(t, res.Figures.DBSize),
		"figure6_storage_required.csv":    csvOf(t, res.Figure6),
	}

	var buf bytes.Buffer
	if _, err := opts.Record.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	f, err := record.Read(buf.Bytes())
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	dir := t.TempDir()
	written, err := f.WriteFigureCSVs(dir)
	if err != nil {
		t.Fatalf("WriteFigureCSVs: %v", err)
	}
	if len(written) != 3 {
		t.Fatalf("regenerated %d files, want 3: %v", len(written), written)
	}
	for name, want := range direct {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("regenerated %s missing: %v", name, err)
			continue
		}
		if string(got) != want {
			t.Errorf("%s regenerated from the recording differs from the direct emit:\n--- recording ---\n%s--- direct ---\n%s", name, got, want)
		}
	}
}

func csvOf(t *testing.T, s *stats.Series) string {
	t.Helper()
	var b bytes.Buffer
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
