package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"odbgc/internal/trace"
)

// digestSink hashes every event's fields, in order, into one SHA-256.
type digestSink struct {
	h      hash.Hash
	buf    []byte
	events int64
}

func newDigestSink() *digestSink { return &digestSink{h: sha256.New()} }

func (d *digestSink) Emit(e trace.Event) error {
	d.buf = d.buf[:0]
	for _, v := range [...]uint64{
		uint64(e.Kind), uint64(e.OID), uint64(e.Size), uint64(e.NFields),
		uint64(e.Parent), uint64(e.ParentField), uint64(e.Field), uint64(e.Target),
	} {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
	}
	d.h.Write(d.buf)
	d.events++
	return nil
}

func (d *digestSink) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// longChurnConfig allocates 50× its live setpoint, so dead nodes
// outnumber alive ones many times over and the generator's per-node
// state turns over again and again.
func longChurnConfig() Config {
	cfg := DefaultConfig()
	cfg.TargetLiveBytes = 50_000
	cfg.TotalAllocBytes = 2_500_000
	cfg.MinDeletions = 100
	cfg.MeanTreeNodes = 60
	cfg.LargeEvery = 300
	cfg.LargeObjectSize = 4096
	return cfg
}

// crossTreeConfig draws half its dense edges from uniformly chosen
// trees, old chopped-down ones included, over several regrowth cycles.
func crossTreeConfig() Config {
	cfg := smallConfig()
	cfg.TotalAllocBytes = 600_000
	cfg.LargeEvery = 0
	cfg.DenseEdgeFraction = 0.167
	cfg.CrossTreeFraction = 0.5
	return cfg
}

// TestGeneratedTraceDigests pins the generator's output event for
// event: each config's full trace must hash to the recorded digest. A
// change to the generator's internal state that consumes one RNG draw
// more or less, or picks a different node, changes the digest. Changing
// a digest changes every trace, golden result and figure downstream; it
// is a workload change, not a refactor.
func TestGeneratedTraceDigests(t *testing.T) {
	cases := []struct {
		name       string
		cfg        Config
		wantEvents int64
		wantSHA256 string
	}{
		{"default", DefaultConfig(), 1603646, "b5d373fd7c83b6746b1ad0d8e069ee79ea7fbb7331437969e59d3f0c0785ca48"},
		{"long-churn", longChurnConfig(), 53603, "c4456e95f8a5f2195bc251c8581be9fdc891c856057cd456e217eadac09e281c"},
		{"cross-tree", crossTreeConfig(), 40479, "ef059479a02183607a82a5b51a843274b17fe94da771284fd53306c93b219de3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := newDigestSink()
			if _, err := g.Run(d); err != nil {
				t.Fatal(err)
			}
			if got := d.sum(); d.events != tc.wantEvents || got != tc.wantSHA256 {
				t.Fatalf("%d events, sha256 %s; want %d events, sha256 %s", d.events, got, tc.wantEvents, tc.wantSHA256)
			}
		})
	}
}
