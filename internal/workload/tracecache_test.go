package workload

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"odbgc/internal/trace"
)

// cacheTestConfig is a small, fast workload.
func cacheTestConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.TargetLiveBytes = 60_000
	cfg.TotalAllocBytes = 200_000
	cfg.MinDeletions = 150
	cfg.MeanTreeNodes = 120
	cfg.LargeObjectSize = 4096
	cfg.LargeEvery = 160
	return cfg
}

type eventListSink struct{ events []trace.Event }

func (s *eventListSink) Emit(e trace.Event) error {
	s.events = append(s.events, e)
	return nil
}

func TestRecordMatchesLiveGeneration(t *testing.T) {
	cfg := cacheTestConfig(7)

	rt, err := Record(cfg)
	if err != nil {
		t.Fatal(err)
	}

	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var live eventListSink
	var liveBuild int64 = -1
	g.SetBuildCompleteHook(func() { liveBuild = int64(len(live.events)) })
	liveStats, err := g.Run(&live)
	if err != nil {
		t.Fatal(err)
	}

	var replayed eventListSink
	var replayBuild int64 = -1
	if err := rt.Replay(&replayed, func() { replayBuild = int64(len(replayed.events)) }); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(replayed.events, live.events) {
		t.Fatalf("replayed %d events diverge from live %d events", len(replayed.events), len(live.events))
	}
	if !reflect.DeepEqual(rt.Stats, liveStats) {
		t.Fatalf("stats diverge:\n rec %+v\nlive %+v", rt.Stats, liveStats)
	}
	if rt.BuildEvents != liveBuild || replayBuild != liveBuild {
		t.Fatalf("build boundary: recorded %d, replayed %d, live %d", rt.BuildEvents, replayBuild, liveBuild)
	}
	if rt.BuildEvents <= 0 || rt.BuildEvents >= rt.Buffer.Len() {
		t.Fatalf("build boundary %d outside (0, %d)", rt.BuildEvents, rt.Buffer.Len())
	}
	if rt.SizeBytes() <= 0 {
		t.Fatal("trace reports no size")
	}
}

// TestRecordedTraceBytesPerEvent bounds the in-memory form of the
// paper's base workload trace just above what the delta code measures,
// 1.56 bytes per event, so a codec change that grows traces fails here.
func TestRecordedTraceBytesPerEvent(t *testing.T) {
	const maxBytesPerEvent = 1.6
	rt, err := Record(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	perEvent := float64(rt.Buffer.SizeBytes()) / float64(rt.Buffer.Len())
	t.Logf("%d events in %d bytes: %.2f bytes per event", rt.Buffer.Len(), rt.Buffer.SizeBytes(), perEvent)
	if perEvent > maxBytesPerEvent {
		t.Fatalf("recorded trace holds %.2f bytes per event, want at most %v", perEvent, maxBytesPerEvent)
	}
}

func TestTraceCacheSharesGenerations(t *testing.T) {
	c := NewTraceCache(0) // unbounded
	cfg := cacheTestConfig(3)

	const callers = 8
	traces := make([]*RecordedTrace, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt, err := c.Get(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			traces[i] = rt
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if traces[i] != traces[0] {
			t.Fatalf("caller %d got a different trace instance", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, callers-1)
	}
	if st.UsedBytes != traces[0].SizeBytes() {
		t.Fatalf("used %d != trace size %d", st.UsedBytes, traces[0].SizeBytes())
	}
}

func TestTraceCacheEvictsLRU(t *testing.T) {
	one, err := Record(cacheTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// A budget of ~1.5 traces keeps the newest trace only.
	c := NewTraceCache(one.SizeBytes() * 3 / 2)
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := c.Get(cacheTestConfig(seed)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under budget pressure: %+v", st)
	}
	if st.UsedBytes > one.SizeBytes()*3/2 {
		t.Fatalf("used %d exceeds budget: %+v", st.UsedBytes, st)
	}
	// The most recent seed is still cached; an older one regenerates.
	before := c.Stats().Misses
	if _, err := c.Get(cacheTestConfig(3)); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Misses != before {
		t.Fatal("most recent trace was evicted")
	}
	if _, err := c.Get(cacheTestConfig(1)); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Misses != before+1 {
		t.Fatal("evicted trace did not regenerate")
	}
}

// TestTraceCacheHitRefreshesRecency: a hit makes its trace the most
// recently used. With room for two traces, Get 1, 2, 1, 3 must evict
// trace 2 and keep trace 1, though 1 was inserted first.
func TestTraceCacheHitRefreshesRecency(t *testing.T) {
	var size [4]int64
	for seed := int64(1); seed <= 3; seed++ {
		rt, err := Record(cacheTestConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		size[seed] = rt.SizeBytes()
	}
	c := NewTraceCache(max(size[1]+size[2], size[1]+size[3]))
	for _, seed := range []int64{1, 2, 1, 3} {
		if _, err := c.Get(cacheTestConfig(seed)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Misses != 3 || st.Hits != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 3 misses, 1 hit, 1 eviction", st)
	}
	if _, err := c.Get(cacheTestConfig(1)); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Misses != st.Misses {
		t.Fatal("trace 1 was evicted although its hit made it more recent than trace 2")
	}
	if _, err := c.Get(cacheTestConfig(2)); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Misses != st.Misses+1 {
		t.Fatal("trace 2, the least recently used, was not evicted")
	}
}

func TestTraceCacheDoesNotCacheErrors(t *testing.T) {
	c := NewTraceCache(0)
	bad := cacheTestConfig(1)
	bad.TargetLiveBytes = -1
	if _, err := c.Get(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	st := c.Stats()
	if st.UsedBytes != 0 {
		t.Fatalf("failed generation charged to budget: %+v", st)
	}
	if _, err := c.Get(bad); err == nil {
		t.Fatal("retry should fail again")
	}
	if got := c.Stats().Misses; got != 2 {
		t.Fatalf("failed entries should not be cached: misses = %d", got)
	}
}

// TestTraceCachePanicReleasesWaiters injects a panicking generator and
// verifies the cache does not stay poisoned: the panic still surfaces in
// the generating goroutine, concurrent waiters on the same configuration
// get an error instead of blocking forever on the in-flight node, and a
// later Get regenerates cleanly.
func TestTraceCachePanicReleasesWaiters(t *testing.T) {
	orig := recordTrace
	defer func() { recordTrace = orig }()

	started := make(chan struct{})
	release := make(chan struct{})
	recordTrace = func(Config) (*RecordedTrace, error) {
		close(started)
		<-release
		panic("injected generator failure")
	}

	c := NewTraceCache(0)
	cfg := cacheTestConfig(7)

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Get(cfg)
	}()
	<-started

	waiterErr := make(chan error, 1)
	go func() {
		_, err := c.Get(cfg)
		waiterErr <- err
	}()
	// The waiter counts as a hit the moment it adopts the in-flight node.
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Hits == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second Get never joined the in-flight generation")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	if r := <-panicked; r == nil {
		t.Fatal("generating Get swallowed the panic")
	}
	select {
	case err := <-waiterErr:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("waiter error = %v, want the injected panic reported", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after panicking generation — in-flight node leaked")
	}

	recordTrace = orig
	rt, err := c.Get(cfg)
	if err != nil || rt == nil {
		t.Fatalf("Get after recovered panic = (%v, %v), want a fresh trace", rt, err)
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 misses (panicked + retry) and 1 hit (waiter)", st)
	}
}

// TestTraceCacheErrorReleasesWaiters covers the non-panicking failure:
// every waiter on a generation that returns an error receives that
// error, and the entry is not cached.
func TestTraceCacheErrorReleasesWaiters(t *testing.T) {
	orig := recordTrace
	defer func() { recordTrace = orig }()

	started := make(chan struct{})
	release := make(chan struct{})
	recordTrace = func(Config) (*RecordedTrace, error) {
		close(started)
		<-release
		return nil, errors.New("injected generation error")
	}

	c := NewTraceCache(0)
	cfg := cacheTestConfig(8)

	genErr := make(chan error, 1)
	go func() {
		_, err := c.Get(cfg)
		genErr <- err
	}()
	<-started
	waiterErr := make(chan error, 1)
	go func() {
		_, err := c.Get(cfg)
		waiterErr <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Hits == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second Get never joined the in-flight generation")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	for _, ch := range []chan error{genErr, waiterErr} {
		if err := <-ch; err == nil || !strings.Contains(err.Error(), "injected generation error") {
			t.Fatalf("Get error = %v, want the injected error", err)
		}
	}
	if st := c.Stats(); st.UsedBytes != 0 {
		t.Fatalf("failed generation left %d bytes charged", st.UsedBytes)
	}
}
