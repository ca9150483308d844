package sim

import (
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

type sinkFunc func(trace.Event) error

func (f sinkFunc) Emit(e trace.Event) error { return f(e) }

// scratchSlack absorbs the small floors of the slot storage and the
// scratch lists (append's first capacities).
const scratchSlack = 64

// ownedBytes is the replay state that could grow with the OIDs a trace
// issues: the heap's tables, the collector's and the oracle's scratch,
// and the remembered sets, counted from capacities.
func ownedBytes(s *Sim) int64 {
	return s.h.Footprint().Bytes + s.col.Footprint().Bytes + s.oracle.Footprint().Bytes + s.rem.Footprint().Bytes
}

// TestHeapMemoryTracksResidentObjects replays one workload into
// UpdatedPointer at two lengths 4× apart and bounds the simulator's
// state by counting, not timing. The longer replay may hold at most 8
// more bytes per additional OID (the OID index alone takes 4). At every
// event, the slot storage and every mark scratch list stay within twice
// the peak resident object count, and the field arena within twice the
// peak words resident objects hold in it, plus small floors. A table
// with an entry for every OID ever issued fails both kinds of bound.
func TestHeapMemoryTracksResidentObjects(t *testing.T) {
	const maxBytesPerOID = 8
	wl := workload.DefaultConfig()
	wl.TargetLiveBytes = 1_000_000
	run := func(alloc int64) (oids, bytes int64) {
		wl := wl
		wl.TotalAllocBytes = alloc
		g, err := workload.New(wl)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(DefaultConfig(core.NameUpdatedPointer))
		if err != nil {
			t.Fatal(err)
		}
		peak, peakWords := 0, 0
		bound := func(what string, got, peak, slack int) {
			if got > 2*peak+slack {
				t.Fatalf("alloc %d: %s capacity %d exceeds twice the peak %d plus %d", alloc, what, got, peak, slack)
			}
		}
		// The words resident objects' fields take grow by each create's
		// field count and shrink only when a collection discards objects.
		// LiveFieldWords walks every resident, so the test asks it once
		// per collection rather than once per event.
		liveWords, collections := 0, int64(0)
		check := func() {
			if n := s.col.Lifetime().Collections; n != collections {
				collections, liveWords = n, s.h.LiveFieldWords()
			}
			hf := s.h.Footprint()
			peak = max(peak, s.h.Len())
			peakWords = max(peakWords, liveWords)
			bound("slot storage", hf.Slots, peak, scratchSlack)
			bound("field arena", hf.ArenaWords, peakWords, scratchSlack)
			bound("collector scratch", s.col.Footprint().Slots, peak, scratchSlack)
			bound("oracle scratch", s.oracle.Footprint().Slots, peak, scratchSlack)
		}
		if _, err := g.Run(sinkFunc(func(e trace.Event) error {
			if err := s.Emit(e); err != nil {
				return err
			}
			if e.Kind == trace.KindCreate {
				liveWords += e.NFields
			}
			check()
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		s.Finish() // one more oracle pass
		check()
		return int64(s.h.OIDBound()), ownedBytes(s)
	}
	shortOIDs, shortBytes := run(10_000_000)
	longOIDs, longBytes := run(40_000_000)
	perOID := float64(longBytes-shortBytes) / float64(longOIDs-shortOIDs)
	t.Logf("%d OIDs: %d bytes; %d OIDs: %d bytes; %.2f bytes per additional OID",
		shortOIDs, shortBytes, longOIDs, longBytes, perOID)
	if perOID > maxBytesPerOID {
		t.Fatalf("replay state grew %.2f bytes per additional OID, want at most %d", perOID, maxBytesPerOID)
	}
}
