package workload

import (
	"testing"

	"odbgc/internal/heap"
	"odbgc/internal/trace"
)

func smallOO1() OO1Config {
	cfg := DefaultOO1Config()
	cfg.Parts = 600
	cfg.RefZone = 20
	cfg.LookupBatch = 20
	cfg.TraverseCap = 80
	cfg.MinDeletions = 300
	cfg.TotalOps = 120
	return cfg
}

func TestOO1TraceIsWellFormed(t *testing.T) {
	g, err := NewOO1(smallOO1())
	if err != nil {
		t.Fatal(err)
	}
	sink := newModelSink(t)
	st, err := g.Run(sink)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != sink.events {
		t.Fatalf("stats.Events %d, sink saw %d", st.Events, sink.events)
	}
	if st.Deletions < smallOO1().MinDeletions {
		t.Fatalf("deletions %d < %d", st.Deletions, smallOO1().MinDeletions)
	}
	if st.Roots != 1 {
		t.Fatalf("roots = %d, want the single index root", st.Roots)
	}
	if st.Reads == 0 || st.Creates == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOO1Deterministic(t *testing.T) {
	run := func() (Stats, int64) {
		g, err := NewOO1(smallOO1())
		if err != nil {
			t.Fatal(err)
		}
		var checksum int64
		st, err := g.Run(sinkFunc(func(e trace.Event) error {
			checksum = checksum*31 + int64(e.Kind) + int64(e.OID) + int64(e.Target)
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		return st, checksum
	}
	s1, c1 := run()
	s2, c2 := run()
	if s1 != s2 || c1 != c2 {
		t.Fatal("OO1 generator is nondeterministic for a fixed seed")
	}
}

func TestOO1SingleUse(t *testing.T) {
	g, err := NewOO1(smallOO1())
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

func TestOO1ConnectionLocality(t *testing.T) {
	cfg := smallOO1()
	g, err := NewOO1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var near, far int
	_, err = g.Run(sinkFunc(func(e trace.Event) error {
		// Connection writes during build: source and target are parts
		// (OIDs above the index skeleton), field < 3, target non-nil.
		if e.Kind == trace.KindWrite && e.Target != heap.NilOID && e.Field < oo1Connections {
			d := int64(e.OID) - int64(e.Target)
			if d < 0 {
				d = -d
			}
			// RefZone in creation order ≈ OID distance (plus index leaf
			// OIDs interleaved); double it for slack.
			if d <= int64(2*cfg.RefZone+4) {
				near++
			} else {
				far++
			}
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	total := near + far
	if total == 0 {
		t.Fatal("no connections observed")
	}
	frac := float64(near) / float64(total)
	if frac < 0.80 || frac > 0.99 {
		t.Fatalf("near-connection fraction = %.2f over %d connections, want ≈0.9", frac, total)
	}
}

func TestOO1DeletionsAreOverwrites(t *testing.T) {
	g, err := NewOO1(smallOO1())
	if err != nil {
		t.Fatal(err)
	}
	values := make(map[[2]uint64]uint64)
	var overwrites int64
	st, err := g.Run(sinkFunc(func(e trace.Event) error {
		switch e.Kind {
		case trace.KindCreate:
			if e.Parent != 0 {
				values[[2]uint64{uint64(e.Parent), uint64(e.ParentField)}] = uint64(e.OID)
			}
		case trace.KindWrite:
			key := [2]uint64{uint64(e.OID), uint64(e.Field)}
			if values[key] != 0 && e.Target == 0 {
				overwrites++
			}
			values[key] = uint64(e.Target)
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if overwrites != st.Deletions {
		t.Fatalf("nil-overwrites in trace = %d, generator Deletions = %d", overwrites, st.Deletions)
	}
}

func TestOO1ConfigValidation(t *testing.T) {
	bad := []func(*OO1Config){
		func(c *OO1Config) { c.Parts = 5 },
		func(c *OO1Config) { c.RefZone = 0 },
		func(c *OO1Config) { c.LookupBatch = 0 },
		func(c *OO1Config) { c.TraverseCap = 0 },
		func(c *OO1Config) { c.TotalOps = 0 },
		func(c *OO1Config) { c.MinDeletions = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultOO1Config()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid OO1 config accepted", i)
		}
	}
	if err := DefaultOO1Config().Validate(); err != nil {
		t.Fatalf("default OO1 config invalid: %v", err)
	}
}

func TestSourceInterface(t *testing.T) {
	var _ Source = (*Generator)(nil)
	var _ Source = (*OO1Generator)(nil)
}
