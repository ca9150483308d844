package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"odbgc/internal/heap"
	"odbgc/internal/trace"
)

// smallConfig is a fast config for tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.TargetLiveBytes = 60_000
	cfg.TotalAllocBytes = 150_000
	cfg.MinDeletions = 100
	cfg.MeanTreeNodes = 120
	cfg.LargeEvery = 200
	return cfg
}

// modelSink replays a trace against a reference object-graph model and
// verifies every event is well formed with respect to what came before.
type modelSink struct {
	t       *testing.T
	objects map[heap.OID]*modelObj
	roots   map[heap.OID]bool
	events  int64
}

type modelObj struct {
	size   int64
	fields []heap.OID
}

func newModelSink(t *testing.T) *modelSink {
	return &modelSink{t: t, objects: make(map[heap.OID]*modelObj), roots: make(map[heap.OID]bool)}
}

func (m *modelSink) Emit(e trace.Event) error {
	m.events++
	if err := e.Validate(); err != nil {
		m.t.Fatalf("event %d invalid: %v", m.events, err)
	}
	switch e.Kind {
	case trace.KindCreate:
		if _, dup := m.objects[e.OID]; dup {
			m.t.Fatalf("event %d: duplicate OID %d", m.events, e.OID)
		}
		if e.Parent != heap.NilOID {
			p, ok := m.objects[e.Parent]
			if !ok {
				m.t.Fatalf("event %d: parent %d not created", m.events, e.Parent)
			}
			if e.ParentField >= len(p.fields) {
				m.t.Fatalf("event %d: parent field %d out of range", m.events, e.ParentField)
			}
			if p.fields[e.ParentField] != heap.NilOID {
				m.t.Fatalf("event %d: creating store clobbers occupied field %d.%d",
					m.events, e.Parent, e.ParentField)
			}
			p.fields[e.ParentField] = e.OID
		}
		m.objects[e.OID] = &modelObj{size: e.Size, fields: make([]heap.OID, e.NFields)}
	case trace.KindRoot:
		if _, ok := m.objects[e.OID]; !ok {
			m.t.Fatalf("event %d: root of unknown OID %d", m.events, e.OID)
		}
		m.roots[e.OID] = true
	case trace.KindRead, trace.KindModify:
		obj, ok := m.objects[e.OID]
		if !ok {
			m.t.Fatalf("event %d: %s of unknown OID %d", m.events, e.Kind, e.OID)
		}
		// Reads must target reachable objects: the simulator would not
		// lose them, but an unreachable read would mean the generator
		// visited deleted data.
		if !m.reachable(e.OID) {
			m.t.Fatalf("event %d: %s of unreachable OID %d", m.events, e.Kind, e.OID)
		}
		_ = obj
	case trace.KindWrite:
		obj, ok := m.objects[e.OID]
		if !ok {
			m.t.Fatalf("event %d: write to unknown OID %d", m.events, e.OID)
		}
		if e.Field >= len(obj.fields) {
			m.t.Fatalf("event %d: write to field %d of %d-field object", m.events, e.Field, len(obj.fields))
		}
		if e.Target != heap.NilOID {
			if _, ok := m.objects[e.Target]; !ok {
				m.t.Fatalf("event %d: write of unknown target %d", m.events, e.Target)
			}
			if !m.reachable(e.Target) {
				m.t.Fatalf("event %d: write installs unreachable target %d", m.events, e.Target)
			}
		}
		obj.fields[e.Field] = e.Target
	}
	return nil
}

// reachable performs reachability from the roots. It is O(objects) per
// call, so the model sink is only usable with small configs.
func (m *modelSink) reachable(oid heap.OID) bool {
	seen := make(map[heap.OID]bool)
	var stack []heap.OID
	for r := range m.roots {
		stack = append(stack, r)
		seen[r] = true
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == oid {
			return true
		}
		for _, f := range m.objects[cur].fields {
			if f != heap.NilOID && !seen[f] {
				seen[f] = true
				stack = append(stack, f)
			}
		}
	}
	return false
}

func (m *modelSink) liveBytes() int64 {
	seen := make(map[heap.OID]bool)
	var stack []heap.OID
	for r := range m.roots {
		stack = append(stack, r)
		seen[r] = true
	}
	var total int64
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		total += m.objects[cur].size
		for _, f := range m.objects[cur].fields {
			if f != heap.NilOID && !seen[f] {
				seen[f] = true
				stack = append(stack, f)
			}
		}
	}
	return total
}

func TestGeneratedTraceIsWellFormed(t *testing.T) {
	cfg := smallConfig()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := newModelSink(t)
	st, err := g.Run(sink)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != sink.events {
		t.Fatalf("stats.Events = %d, sink saw %d", st.Events, sink.events)
	}
	if st.AllocatedBytes < cfg.TotalAllocBytes {
		t.Fatalf("allocated %d < target %d", st.AllocatedBytes, cfg.TotalAllocBytes)
	}
	if st.Deletions < cfg.MinDeletions {
		t.Fatalf("deletions %d < target %d", st.Deletions, cfg.MinDeletions)
	}
	if st.Trees == 0 || st.Nodes == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTreePickIndexConsistency checks the Fenwick index behind the
// alive-weighted tree pick against the trees' own alive counts after a
// full run with heavy churn: every prefix sum must equal the linear sum
// a scan would have computed, or pickTree silently picks wrong trees.
func TestTreePickIndexConsistency(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalAllocBytes = 400_000 // several grow/delete cycles
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(newModelSink(t)); err != nil {
		t.Fatal(err)
	}
	sum := 0
	for i, tr := range g.trees {
		if tr.idx != i {
			t.Fatalf("tree %d has idx %d", i, tr.idx)
		}
		sum += tr.aliveCount
		if got := g.bitPrefix(i + 1); got != sum {
			t.Fatalf("bitPrefix(%d) = %d, linear sum = %d", i+1, got, sum)
		}
	}
	if sum != g.totalAlive {
		t.Fatalf("sum of aliveCount = %d, totalAlive = %d", sum, g.totalAlive)
	}
}

func TestGeneratorLiveEstimateTracksModel(t *testing.T) {
	cfg := smallConfig()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := newModelSink(t)
	st, err := g.Run(sink)
	if err != nil {
		t.Fatal(err)
	}
	// The generator's estimate counts the tree-edge-visitable set; true
	// heap liveness can only be larger, because dense edges from visitable
	// nodes keep parts of deleted subtrees alive ("all, part, or none of
	// the subtree ... may become garbage", Section 5).
	model := sink.liveBytes()
	if st.LiveBytesEstimate > model {
		t.Fatalf("generator estimate %d exceeds model live bytes %d", st.LiveBytesEstimate, model)
	}
	// Dense retention is bounded: the visitable set is still a meaningful
	// fraction of true liveness.
	if float64(st.LiveBytesEstimate) < 0.25*float64(model) {
		t.Fatalf("estimate %d under a quarter of model %d", st.LiveBytesEstimate, model)
	}
}

func TestGeneratorDeterministicBySeed(t *testing.T) {
	run := func() (Stats, []trace.Event) {
		cfg := smallConfig()
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var events []trace.Event
		st, err := g.Run(sinkFunc(func(e trace.Event) error {
			events = append(events, e)
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		return st, events
	}
	st1, ev1 := run()
	st2, ev2 := run()
	if st1 != st2 {
		t.Fatalf("stats differ:\n%+v\n%+v", st1, st2)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
}

func TestGeneratorSeedsDiverge(t *testing.T) {
	cfg := smallConfig()
	g1, _ := New(cfg)
	cfg2 := cfg
	cfg2.Seed = 2
	g2, _ := New(cfg2)
	var n1, n2 int64
	st1, err := g1.Run(sinkFunc(func(trace.Event) error { n1++; return nil }))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := g2.Run(sinkFunc(func(trace.Event) error { n2++; return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if st1.Events == st2.Events && st1.Reads == st2.Reads && st1.Nodes == st2.Nodes {
		t.Fatal("different seeds produced identical-looking traces")
	}
}

func TestBuildCompleteHookFiresOnceAtPhaseBoundary(t *testing.T) {
	cfg := smallConfig()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fired int
	var eventsAtFire int64
	var events int64
	g.SetBuildCompleteHook(func() {
		fired++
		eventsAtFire = events
	})
	st, err := g.Run(sinkFunc(func(trace.Event) error { events++; return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1", fired)
	}
	if eventsAtFire == 0 || eventsAtFire >= st.Events {
		t.Fatalf("hook fired at event %d of %d, want strictly inside the run", eventsAtFire, st.Events)
	}
	// At the phase boundary no deletions have happened yet; the build
	// phase is pure creation.
	if eventsAtFire > st.Creates+st.Roots+st.Writes {
		t.Fatalf("hook point %d beyond build-phase event budget", eventsAtFire)
	}
}

func TestGeneratorSingleUse(t *testing.T) {
	g, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(sinkFunc(func(trace.Event) error { return nil })); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(sinkFunc(func(trace.Event) error { return nil })); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestConnectivityMatchesDenseFraction(t *testing.T) {
	for _, f := range []float64{0.005, 0.083, 0.167} {
		cfg := smallConfig()
		cfg.DenseEdgeFraction = f
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := g.Run(sinkFunc(func(trace.Event) error { return nil }))
		if err != nil {
			t.Fatal(err)
		}
		got := float64(st.DenseEdges) / float64(st.Nodes)
		// Tolerance: half the target relatively, or 3σ of the binomial
		// count for tiny fractions at this sample size.
		tol := f * 0.5
		if noise := 3 * math.Sqrt(f/float64(st.Nodes)); noise > tol {
			tol = noise
		}
		if got < f-tol || got > f+tol {
			t.Errorf("dense fraction %v: measured %v dense edges per node (tol %v)", f, got, tol)
		}
		if want := 1 + f; cfg.Connectivity() != want {
			t.Errorf("Connectivity() = %v, want %v", cfg.Connectivity(), want)
		}
	}
}

func TestLargeObjectShareNearTwentyPercent(t *testing.T) {
	// With 100-byte nodes, a large leaf every N nodes puts
	// 65536/(65536+100N) of bytes in large objects; N=2600 gives ≈20%.
	// The 1/2600 rate needs a reasonably long run to average out.
	cfg := smallConfig()
	cfg.TotalAllocBytes = 6_000_000
	cfg.TargetLiveBytes = 600_000
	cfg.MinDeletions = 400
	cfg.LargeEvery = 2600
	cfg.LargeObjectSize = 65536
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Run(sinkFunc(func(trace.Event) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	largeBytes := st.LargeObjects * cfg.LargeObjectSize
	share := float64(largeBytes) / float64(st.AllocatedBytes)
	if share < 0.10 || share > 0.35 {
		t.Fatalf("large-object share = %.2f (bytes %d of %d), want ≈0.20",
			share, largeBytes, st.AllocatedBytes)
	}
}

func TestEdgeReadWriteRatioInRange(t *testing.T) {
	// The ratio only settles at full scale (the build phase's creation
	// stores amortize over a long churn phase), so this test runs the
	// actual base configuration.
	g, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Run(sinkFunc(func(trace.Event) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if st.EdgeReadWriteRatio < 8 || st.EdgeReadWriteRatio > 30 {
		t.Fatalf("read/write ratio = %.1f, want the paper's neighborhood (15–20)", st.EdgeReadWriteRatio)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.TargetLiveBytes = 0 },
		func(c *Config) { c.TotalAllocBytes = c.TargetLiveBytes - 1 },
		func(c *Config) { c.MinDeletions = -1 },
		func(c *Config) { c.MaxEvents = 0 },
		func(c *Config) { c.LargeEvery = -1 },
		func(c *Config) { c.LargeEvery = 10; c.LargeObjectSize = 0 },
		func(c *Config) { c.MeanTreeNodes = 1 },
		func(c *Config) { c.DenseEdgeFraction = -0.1 },
		func(c *Config) { c.DenseEdgeFraction = 1.1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// TestConfigRejectsOIDBound checks that a config whose run could issue
// OIDs past the 32-bit operand bound fails Validate naming its bound,
// before any event is generated, while the defaults and the benchmark's
// three workload shapes (paper-tables' base workload, stream-large's
// 500 MB and sharded-cross's cross-tree 300 MB) still validate.
func TestConfigRejectsOIDBound(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		bound  string // the bound the error names; "" for a valid config
	}{
		{"default", func(*Config) {}, ""},
		{"stream-large", func(c *Config) { c.TotalAllocBytes = 500_000_000 }, ""},
		{"sharded-cross", func(c *Config) {
			c.DenseEdgeFraction, c.CrossTreeFraction, c.TotalAllocBytes = 0.167, 0.5, 300_000_000
		}, ""},
		{"four billion events", func(c *Config) { c.MaxEvents = 4_000_000_000 }, ""},
		// 2^32-1 events before the last iteration, which can regrow
		// 786,918 OIDs (a deleted tree of 599 nodes of 150 + 65,536
		// bytes, over 50) and two more trees of up to 1,198 OIDs.
		{"2^32 events", func(c *Config) { c.MaxEvents = 1 << 32 }, "4295756609"},
		{"unbounded events", func(c *Config) { c.MaxEvents = math.MaxInt64 }, "9223372036855564288"},
		// A live setpoint of 2^32 minimal objects outgrows the bound in
		// the build phase alone, plus its last tree.
		{"huge live set", func(c *Config) {
			c.TargetLiveBytes, c.TotalAllocBytes, c.LargeEvery = 50<<32, 50<<32, 0
		}, "4294968494"},
		// One-byte large leaves are the smallest object.
		{"large leaves smaller than nodes", func(c *Config) {
			c.TargetLiveBytes, c.TotalAllocBytes, c.LargeObjectSize = 5_000_000_000, 5_000_000_000, 1
		}, "5000001198"},
	} {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if tc.bound == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "up to "+tc.bound+" OIDs") || !strings.Contains(err.Error(), "32-bit") {
			t.Errorf("%s: err = %v, want the bound %s past the 32-bit operand bound", tc.name, err, tc.bound)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
}

// TestFingerprintPinned pins the base workload's fingerprint: it is
// stamped into every chunk a streamed trace of that workload writes, so
// a change to the hashed form must be deliberate.
func TestFingerprintPinned(t *testing.T) {
	if got, want := DefaultConfig().Fingerprint(), uint64(0xe44c7daa127819bb); got != want {
		t.Fatalf("DefaultConfig().Fingerprint() = %#016x, want %#016x", got, want)
	}
}

// TestFingerprintCoversEveryField changes each field of Config in turn,
// found by reflection so a field added later is covered too, and checks
// that the fingerprint moves.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := DefaultConfig()
	fields := reflect.TypeOf(base).NumField()
	for i := 0; i < fields; i++ {
		cfg := base
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.125)
		default:
			t.Fatalf("field %s has kind %s; teach this test to change it", reflect.TypeOf(base).Field(i).Name, f.Kind())
		}
		if cfg.Fingerprint() == base.Fingerprint() {
			t.Errorf("changing %s leaves the fingerprint at %#016x", reflect.TypeOf(base).Field(i).Name, base.Fingerprint())
		}
	}
}

// sinkFunc adapts a function to trace.Sink.
type sinkFunc func(trace.Event) error

func (f sinkFunc) Emit(e trace.Event) error { return f(e) }
