package experiments

import (
	"runtime"
	"testing"
)

// BenchmarkSuiteWallClock measures end-to-end suite wall-clock time at
// reduced scale under three orchestration modes, isolating the two
// optimizations: the shared trace cache (serial vs serial+cache) and the
// worker pool (serial+cache vs parallel+cache; the pool only helps with
// more than one core).
func BenchmarkSuiteWallClock(b *testing.B) {
	cfgs := scaledSuite()
	run := func(b *testing.B, workers int, cacheBytes int64) {
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
		var hits, misses int64
		for i := 0; i < b.N; i++ {
			opts := allSuite(2)
			opts.Workers = workers
			opts.TraceCacheBytes = cacheBytes
			res, err := runSuite(opts, cfgs, nil)
			if err != nil {
				b.Fatal(err)
			}
			hits, misses = res.Cache.Hits, res.Cache.Misses
		}
		b.ReportMetric(float64(hits), "cache-hits")
		b.ReportMetric(float64(misses), "cache-misses")
	}
	b.Run("serial", func(b *testing.B) { run(b, 1, -1) })
	b.Run("serial+cache", func(b *testing.B) { run(b, 1, 0) })
	b.Run("parallel+cache", func(b *testing.B) { run(b, 0, 0) })
}
