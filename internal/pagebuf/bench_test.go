package pagebuf

import (
	"math/rand"
	"testing"
)

func benchAccesses(b *testing.B, pages int) {
	b.Helper()
	buf, err := New(48)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	seq := make([]PageID, 4096)
	for i := range seq {
		seq[i] = PageID(rng.Intn(pages))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := seq[i%len(seq)]
		if i%5 == 0 {
			buf.Write(p, ActorApp)
		} else {
			buf.Read(p, ActorApp)
		}
	}
}

func BenchmarkLRUHitHeavy(b *testing.B)  { benchAccesses(b, 32) }   // fits: mostly hits
func BenchmarkLRUMissHeavy(b *testing.B) { benchAccesses(b, 1024) } // thrashes

// BenchmarkPageBufHit measures the pure hit path: a working set smaller
// than the buffer, so after warmup every access is a hit and the only
// work is the index lookup plus the recency update.
func BenchmarkPageBufHit(b *testing.B) {
	buf, err := New(48)
	if err != nil {
		b.Fatal(err)
	}
	for p := PageID(0); p < 32; p++ {
		buf.Write(p, ActorApp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Read(PageID(i&31), ActorApp)
	}
}

// BenchmarkPageBufMiss measures the steady-state miss path: a cyclic
// sweep over far more pages than frames, so every access misses, evicts
// a dirty page, and re-reads a persisted one.
func BenchmarkPageBufMiss(b *testing.B) {
	buf, err := New(48)
	if err != nil {
		b.Fatal(err)
	}
	for p := PageID(0); p < 4096; p++ {
		buf.Write(p, ActorApp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Write(PageID(i&4095), ActorApp)
	}
}
