package analysis_test

import (
	"testing"

	"odbgc/internal/analysis"
	"odbgc/internal/analysis/atest"
)

// Each fixture package demonstrates at least one true positive, one true
// negative, and one suppressed line for its analyzer; atest.Run fails on
// any unmatched or unexpected diagnostic.

// The direct rules of detflow and hotcall keep single-package fixtures
// of their own (detflow's map-order rule keeps detmap's fixture); the
// multi-package fixtures below cover the flows through calls.

func TestDetMap(t *testing.T) {
	atest.Run(t, "testdata/detmap/sim", analysis.DetFlow)
}

func TestSimClock(t *testing.T) {
	atest.Run(t, "testdata/simclock/sim", analysis.DetFlow)
}

func TestHotAlloc(t *testing.T) {
	atest.Run(t, "testdata/hotalloc/trace", analysis.HotCall)
}

func TestArenaIndex(t *testing.T) {
	atest.Run(t, "testdata/arenaindex/pagebuf", analysis.ArenaIndex)
}

// The flat arenas: pointers into and views of //odbgc:arena fields held
// across calls that grow them, within the package and, through facts,
// from a dependent package.
func TestArenaIndexSlots(t *testing.T) {
	atest.RunMulti(t, "testdata/arenaindex", analysis.ArenaIndex, "slotheap", "slotuser")
}

func TestKindSwitch(t *testing.T) {
	atest.Run(t, "testdata/kindswitch/core", analysis.KindSwitch)
}

// The interprocedural fixtures are multi-package: every cross-package
// finding below depends on facts that atest serialized after analyzing
// the dependency and decoded before analyzing the dependent, so these
// tests prove the summaries survive the vetx wire format.

func TestHotCall(t *testing.T) {
	atest.RunMulti(t, "testdata/hotcall", analysis.HotCall, "depbuf", "hot")
}

func TestDetFlow(t *testing.T) {
	atest.RunMulti(t, "testdata/detflow", analysis.DetFlow, "timing", "record", "sim")
}
