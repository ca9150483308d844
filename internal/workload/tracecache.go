package workload

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"

	"odbgc/internal/trace"
)

// The paper's pairing discipline replays the same workload seed under
// every selection policy (Section 4), so a naive suite regenerates each
// seed's identical event stream once per policy — up to six times. A
// RecordedTrace captures one seed's stream once; a TraceCache shares
// recorded traces across every simulation of a suite under a bounded
// memory budget.

// RecordedTrace is one workload configuration's complete event stream,
// generated once and replayable into any number of simulators. Replays
// are bit-identical to running the generator live: same events, same
// order, same build-phase boundary.
//
// An in-memory trace (Record) holds the stream once, in Buffer's packed
// bytes (the chunk file's delta-coded payload encoding, about 1.6 bytes
// per event),
// which every Replay decodes without allocating. A streamed trace
// (RecordStreamed, OpenStreamed) has no Buffer: Stream replays a chunked
// file through the prefetch pipeline at two chunk payloads of resident
// memory.
type RecordedTrace struct {
	// Config is the generating configuration (including the seed).
	Config Config
	// Stats is the generator's trace summary.
	Stats Stats
	// Buffer holds the packed events; nil for a streamed trace.
	Buffer *trace.Buffer
	// Stream replays a chunked on-disk trace; nil for an in-memory
	// trace. Exactly one of Buffer and Stream is non-nil.
	Stream *trace.ChunkStream
	// BuildEvents is the number of events emitted before the generator's
	// build-complete hook fired (the build/churn boundary), or -1 if the
	// generator never fired it. Warm-start replays reset measurement
	// there.
	BuildEvents int64
}

// Record generates cfg's full event stream into an in-memory packed
// buffer. An operand above 2^32-1 fails generation with an error naming
// the event and the operand.
func Record(cfg Config) (*RecordedTrace, error) {
	g, err := New(cfg)
	if err != nil {
		return nil, err
	}
	rt := &RecordedTrace{Config: cfg, Buffer: &trace.Buffer{}, BuildEvents: -1}
	g.SetBuildCompleteHook(func() { rt.BuildEvents = rt.Buffer.Len() })
	st, err := g.Run(rt.Buffer)
	if err != nil {
		return nil, err
	}
	rt.Stats = st
	rt.Buffer.Compact()
	return rt, nil
}

// Replay streams the recorded events into sink. A non-nil buildDone runs
// once at the build/churn boundary, after exactly BuildEvents events —
// the point where a live generator would have invoked its
// build-complete hook — so warm-start simulations reset their
// measurement window at the identical event. With BuildEvents 0 it runs
// before the first event, even for an empty trace; with no recorded
// boundary (-1), or one past the end of the trace, it never runs.
func (rt *RecordedTrace) Replay(sink trace.Sink, buildDone func()) error {
	if buildDone != nil && rt.BuildEvents == 0 {
		buildDone()
	} else if buildDone != nil && rt.BuildEvents > 0 {
		sink = &boundarySink{sink: sink, left: rt.BuildEvents, fire: buildDone}
	}
	if rt.Stream != nil {
		return rt.Stream.Replay(sink)
	}
	return rt.Buffer.Replay(sink)
}

// boundarySink passes every event on to sink and runs fire once, right
// after the left-th event.
type boundarySink struct {
	sink trace.Sink
	left int64
	fire func()
}

func (b *boundarySink) Emit(e trace.Event) error {
	if err := b.sink.Emit(e); err != nil {
		return err
	}
	if b.left--; b.left == 0 {
		b.fire()
	}
	return nil
}

// SizeBytes is the trace's memory footprint for cache accounting: the
// buffer's packed bytes for an in-memory trace, or the replay
// pipeline's resident bytes — not the on-disk size — for a streamed
// one. That difference is the point of spilling: a 100-million-
// event trace charges the cache two chunks, not gigabytes.
func (rt *RecordedTrace) SizeBytes() int64 {
	if rt.Stream != nil {
		return rt.Stream.ResidentBytes()
	}
	return rt.Buffer.SizeBytes()
}

// DefaultTraceCacheBytes is the suite harness's default cache budget. It
// holds the base experiments' ten seed traces (2.5 MB each, packed)
// many times over, and the Figure 6 scalability sweep's too: its five
// traces take about 18 MB per seed, and `experiments -fig6` measured 50
// traces generated, 250 replays from the cache, no evictions and a
// 179 MB peak.
const DefaultTraceCacheBytes = 256 << 20

// CacheStats counts TraceCache traffic.
type CacheStats struct {
	// Hits are Gets served from a cached (or in-flight) trace; Misses
	// generated a new one; Evictions removed a trace to respect the
	// budget.
	Hits, Misses, Evictions int64
	// UsedBytes and PeakBytes track the budget accounting.
	UsedBytes, PeakBytes int64
}

// TraceCache generates each distinct workload configuration's trace once
// and shares it between concurrent simulations. It is safe for use from
// many goroutines: concurrent Gets of the same configuration wait for a
// single generation instead of duplicating it. Memory is bounded by a
// byte budget with least-recently-used eviction; an evicted trace is
// simply regenerated if requested again.
//
// Recency is one slice of entries, least recently used first. The cache
// is touched once per simulation and holds at most a few hundred
// traces, so its linear scans cost nothing next to one generation.
type TraceCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[Config]*cacheEntry
	order   []*cacheEntry // least recently used first
	stats   CacheStats

	// Spill mode (EnableSpill): configurations whose TotalAllocBytes
	// meets spillMin generate straight to chunked files in spillDir and
	// charge the cache their replay pipeline's resident bytes instead of
	// the whole trace.
	spillDir string
	spillMin int64
}

// cacheEntry is one configuration's generation. size is guarded by the
// cache's mutex; rt and err are set once, before ready is closed, so a
// waiter that found the entry reads them after <-ready even if the entry
// has since been evicted.
type cacheEntry struct {
	key   Config
	size  int64 // 0 until generation completes
	ready chan struct{}
	rt    *RecordedTrace
	err   error
}

// recordTrace is Record, indirected so cache tests can inject failing or
// panicking generations.
var recordTrace = Record

// NewTraceCache returns a cache bounded to budget bytes of recorded
// trace data; budget <= 0 disables eviction (unbounded).
func NewTraceCache(budget int64) *TraceCache {
	return &TraceCache{budget: budget, entries: make(map[Config]*cacheEntry)}
}

// EnableSpill directs the cache to generate any configuration whose
// TotalAllocBytes is at least minAllocBytes straight to a chunked trace
// file under dir instead of holding it in memory. Spilled traces charge
// the budget their replay pipeline's resident bytes (two chunks), so the
// Figure 6 sweep's largest seeds no longer evict everything else. The
// caller owns dir's lifetime; evicting a spilled entry does not delete
// its file (outstanding holders may still be replaying it), so pass a
// directory whose cleanup is scheduled, such as a test TempDir.
func (c *TraceCache) EnableSpill(dir string, minAllocBytes int64) {
	c.mu.Lock()
	c.spillDir, c.spillMin = dir, minAllocBytes
	c.mu.Unlock()
}

// generate produces cfg's trace by the mode the cache is configured for:
// in memory, or spilled to a chunked file when cfg allocates enough to
// cross the spill threshold.
func (c *TraceCache) generate(cfg Config) (*RecordedTrace, error) {
	c.mu.Lock()
	dir, min := c.spillDir, c.spillMin
	c.mu.Unlock()
	if dir != "" && cfg.TotalAllocBytes >= min {
		path := filepath.Join(dir, fmt.Sprintf("trace-%016x.odbgcck", cfg.Fingerprint()))
		return RecordStreamed(cfg, path, 0)
	}
	return recordTrace(cfg)
}

// Get returns cfg's recorded trace, generating it on first use. Callers
// may hold and replay the returned trace for as long as they like;
// eviction only affects future Gets.
func (c *TraceCache) Get(cfg Config) (*RecordedTrace, error) {
	c.mu.Lock()
	if ent, ok := c.entries[cfg]; ok {
		c.stats.Hits++
		i := slices.Index(c.order, ent)
		c.order = append(slices.Delete(c.order, i, i+1), ent) // now the most recent
		c.mu.Unlock()
		<-ent.ready
		return ent.rt, ent.err
	}
	ent := &cacheEntry{key: cfg, ready: make(chan struct{})}
	c.entries[cfg] = ent
	c.order = append(c.order, ent)
	c.stats.Misses++
	c.mu.Unlock()

	// Generation runs outside the lock. A panicking generator must not
	// poison the cache: without the cleanup below, the in-flight entry
	// stays pinned under cfg forever and every later Get of the same
	// configuration blocks on a ready channel nobody will close. The
	// deferred recovery removes the entry, releases all waiters with an
	// error, and re-panics so the bug still surfaces in this goroutine.
	completed := false
	defer func() {
		if completed {
			return
		}
		r := recover()
		ent.err = fmt.Errorf("workload: trace generation for seed %d panicked: %v", cfg.Seed, r)
		c.mu.Lock()
		c.removeLocked(ent)
		c.mu.Unlock()
		close(ent.ready)
		panic(r)
	}()
	rt, err := c.generate(cfg)
	completed = true
	ent.rt, ent.err = rt, err

	// The entry is still cached: in-flight entries (size == 0) are never
	// evicted, and only this goroutine completes or removes them.
	c.mu.Lock()
	if err != nil {
		// Do not cache failures; a later Get retries.
		c.removeLocked(ent)
	} else {
		ent.size = rt.SizeBytes()
		c.used += ent.size
		if c.used > c.stats.PeakBytes {
			c.stats.PeakBytes = c.used
		}
		c.evictLocked(ent)
	}
	c.mu.Unlock()
	close(ent.ready)
	return rt, err
}

// evictLocked drops least-recently-used completed traces until the
// budget is met, never evicting keep (the entry just inserted) or
// entries still generating (size == 0).
func (c *TraceCache) evictLocked(keep *cacheEntry) {
	if c.budget <= 0 {
		return
	}
	for i := 0; i < len(c.order) && c.used > c.budget; {
		if ent := c.order[i]; ent != keep && ent.size != 0 {
			c.removeLocked(ent)
			c.stats.Evictions++
			continue
		}
		i++
	}
}

// removeLocked drops ent from the map, the recency order and the budget.
func (c *TraceCache) removeLocked(ent *cacheEntry) {
	delete(c.entries, ent.key)
	i := slices.Index(c.order, ent)
	c.order = slices.Delete(c.order, i, i+1)
	c.used -= ent.size
}

// Stats returns a snapshot of the cache counters.
func (c *TraceCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.UsedBytes = c.used
	return st
}
