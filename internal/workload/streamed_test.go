package workload

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestRecordStreamedMatchesRecord(t *testing.T) {
	cfg := cacheTestConfig(11)
	mem, err := Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.odbgcck")
	// 16 KB chunks force many chunk boundaries even for this small trace.
	streamed, err := RecordStreamed(cfg, path, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Buffer != nil || streamed.Stream == nil {
		t.Fatal("streamed trace should be backed by Stream only")
	}
	if !reflect.DeepEqual(streamed.Stats, mem.Stats) {
		t.Fatalf("stats diverge:\n stream %+v\n memory %+v", streamed.Stats, mem.Stats)
	}
	if streamed.BuildEvents != mem.BuildEvents {
		t.Fatalf("build boundary: streamed %d, in-memory %d", streamed.BuildEvents, mem.BuildEvents)
	}
	if streamed.Stream.Fingerprint() != cfg.Fingerprint() {
		t.Fatalf("fingerprint %#x, want %#x", streamed.Stream.Fingerprint(), cfg.Fingerprint())
	}
	if streamed.Stream.Chunks() < 2 {
		t.Fatalf("16 KB chunks produced only %d chunks", streamed.Stream.Chunks())
	}

	var fromMem, fromStream eventListSink
	var memBuild, streamBuild int64 = -1, -1
	if err := mem.Replay(&fromMem, func() { memBuild = int64(len(fromMem.events)) }); err != nil {
		t.Fatal(err)
	}
	if err := streamed.Replay(&fromStream, func() { streamBuild = int64(len(fromStream.events)) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromStream.events, fromMem.events) {
		t.Fatalf("streamed replay (%d events) diverges from in-memory replay (%d events)",
			len(fromStream.events), len(fromMem.events))
	}
	if streamBuild != memBuild {
		t.Fatalf("buildDone fired at %d streamed, %d in-memory", streamBuild, memBuild)
	}

	// A streamed trace charges its pipeline footprint — bounded by the
	// chunk size, not the trace length. (For this deliberately tiny test
	// trace the two are comparable; for the 100M+ event traces spilling
	// exists for, the footprint is constant while the trace is not.)
	if got, bound := streamed.SizeBytes(), streamed.Stream.ResidentBytes(); got != bound {
		t.Fatalf("streamed SizeBytes %d, want pipeline ResidentBytes %d", got, bound)
	}
	if bound := int64(2 * (16<<10 + 64)); streamed.SizeBytes() > bound {
		t.Fatalf("streamed SizeBytes %d exceeds the %d chunk-size bound", streamed.SizeBytes(), bound)
	}
}

func TestOpenStreamed(t *testing.T) {
	cfg := cacheTestConfig(12)
	mem, err := Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.odbgcck")
	if err := mem.WriteChunked(path, 8<<10); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenStreamed(path)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Stats.Events != mem.Stats.Events {
		t.Fatalf("opened trace reports %d events, want %d", opened.Stats.Events, mem.Stats.Events)
	}
	if opened.BuildEvents != -1 {
		t.Fatalf("opened trace has BuildEvents %d; the file does not carry the boundary", opened.BuildEvents)
	}
	var fromMem, fromFile eventListSink
	if err := mem.Replay(&fromMem, nil); err != nil {
		t.Fatal(err)
	}
	fired := false
	if err := opened.Replay(&fromFile, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("buildDone fired for an opened file with no recorded boundary")
	}
	if !reflect.DeepEqual(fromFile.events, fromMem.events) {
		t.Fatal("replay of written-then-opened file diverges from source trace")
	}
}

func TestTraceCacheSpill(t *testing.T) {
	dir := t.TempDir()
	c := NewTraceCache(0)
	// Everything at or above 150 KB of allocation spills; the test config
	// allocates 200 KB, a shrunken variant stays in memory.
	c.EnableSpill(dir, 150_000)

	big := cacheTestConfig(21)
	small := cacheTestConfig(22)
	small.TargetLiveBytes = 40_000
	small.TotalAllocBytes = 100_000
	small.MinDeletions = 60

	spilled, err := c.Get(big)
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Stream == nil {
		t.Fatal("large configuration did not spill to disk")
	}
	if got := filepath.Dir(spilled.Stream.Path()); got != dir {
		t.Fatalf("spill file in %q, want %q", got, dir)
	}
	resident, err := c.Get(small)
	if err != nil {
		t.Fatal(err)
	}
	if resident.Stream != nil || resident.Buffer == nil {
		t.Fatal("small configuration spilled; want in-memory")
	}

	// The spilled trace replays identically to an in-memory recording.
	mem, err := Record(big)
	if err != nil {
		t.Fatal(err)
	}
	var fromMem, fromSpill eventListSink
	if err := mem.Replay(&fromMem, nil); err != nil {
		t.Fatal(err)
	}
	if err := spilled.Replay(&fromSpill, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromSpill.events, fromMem.events) {
		t.Fatal("spilled replay diverges from in-memory replay")
	}
	if spilled.BuildEvents != mem.BuildEvents {
		t.Fatalf("spilled build boundary %d, in-memory %d", spilled.BuildEvents, mem.BuildEvents)
	}

	// Cache accounting charges the spilled trace its pipeline footprint
	// (not the trace bytes), and a second Get is a hit on the same handle.
	if used, want := c.Stats().UsedBytes, spilled.Stream.ResidentBytes()+resident.SizeBytes(); used != want {
		t.Fatalf("cache charges %d bytes, want ResidentBytes-based %d", used, want)
	}
	again, err := c.Get(big)
	if err != nil {
		t.Fatal(err)
	}
	if again != spilled {
		t.Fatal("second Get of spilled configuration regenerated instead of hitting")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
}
