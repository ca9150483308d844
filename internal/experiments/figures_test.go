package experiments

import (
	"strings"
	"testing"

	"odbgc/internal/core"
)

func TestRunFigures45Scaled(t *testing.T) {
	res, err := runSuite(SuiteOptions{Seeds: 1, Figures45: true}, scaledSuite(), nil)
	if err != nil {
		t.Fatal(err)
	}
	figs := res.Figures
	if figs.Garbage.Len() == 0 || figs.DBSize.Len() != figs.Garbage.Len() {
		t.Fatalf("series lengths: garbage %d, dbsize %d", figs.Garbage.Len(), figs.DBSize.Len())
	}
	if len(figs.Garbage.Names) != 6 {
		t.Fatalf("columns = %v", figs.Garbage.Names)
	}
	// NoCollection's garbage column dominates every other policy at the
	// final sample (nothing is ever reclaimed).
	last := figs.Garbage.Len() - 1
	noColl := figs.Garbage.Y[0][last] // PaperNames()[0] == NoCollection
	if figs.Garbage.Names[0] != core.NameNoCollection {
		t.Fatalf("column 0 = %s", figs.Garbage.Names[0])
	}
	for i, name := range figs.Garbage.Names[1:] {
		if figs.Garbage.Y[i+1][last] > noColl {
			t.Errorf("%s ended with more unreclaimed garbage (%f) than NoCollection (%f)",
				name, figs.Garbage.Y[i+1][last], noColl)
		}
	}
	// DB size = live + garbage, so it is always >= the garbage column.
	for i := range figs.Garbage.Names {
		for j := range figs.Garbage.X {
			if figs.DBSize.Y[i][j] < figs.Garbage.Y[i][j] {
				t.Fatalf("sample %d policy %d: size %f < garbage %f",
					j, i, figs.DBSize.Y[i][j], figs.Garbage.Y[i][j])
			}
		}
	}
	// Sample grids are identical across policies (same trace).
	csv := &strings.Builder{}
	if err := figs.Garbage.WriteCSV(csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "events,"+core.NameNoCollection) {
		t.Fatalf("csv header: %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
}

func TestRunFigure6Scaled(t *testing.T) {
	cfgs := scaledSuite() // points of 1 and 2 MB
	res, err := runSuite(SuiteOptions{Seeds: 2, Figure6: true}, cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	storage := res.Figure6
	if storage.Len() != len(cfgs.fig6Points) {
		t.Fatalf("%d points, want %d", storage.Len(), len(cfgs.fig6Points))
	}
	for q, policy := range storage.Names {
		// Storage grows with allocation for every policy.
		if curve := storage.Y[q]; curve[1] <= curve[0] {
			t.Errorf("%s: storage did not grow with allocation: %v", policy, curve)
		}
	}
	// NoCollection requires the most storage at every point.
	if storage.Names[0] != core.NameNoCollection {
		t.Fatalf("column 0 = %s", storage.Names[0])
	}
	noColl := storage.Y[0]
	for q, policy := range storage.Names[1:] {
		for i, mb := range storage.X {
			if storage.Y[q+1][i] > noColl[i]+0.001 {
				t.Errorf("%s exceeds NoCollection storage at %d MB", policy, mb)
			}
		}
	}
}
