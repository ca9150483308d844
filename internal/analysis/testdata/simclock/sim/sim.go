// Package sim is the direct-use fixture for the detflow analyzer:
// clock, global-rand, and environment reads are findings in a result
// package wherever their values go. The package name matters, because
// the rule scopes itself to the result-affecting packages by name.
package sim

import (
	"math/rand"
	"os"
	"time"
)

// Stamp reads the wall clock, which differs between runs.
func Stamp() int64 {
	return time.Now().Unix() // want `time.Now is nondeterministic`
}

// Jitter consults the global generator, whose state is shared and
// unseeded.
func Jitter() float64 {
	return rand.Float64() // want `use of global rand.Float64`
}

// Home depends on the shell environment.
func Home() string {
	return os.Getenv("HOME") // want `os.Getenv is nondeterministic`
}

// Seeded threads an explicitly seeded source, the sanctioned pattern:
// constructors are allowed, and methods on the resulting *rand.Rand never
// go through the package name.
func Seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// Elapsed is deliberately wall-clock based (it feeds a progress meter,
// not a result); the suppression records that.
func Elapsed(start time.Time) time.Duration {
	return time.Since(start) //odbgc:nondet-ok progress reporting only; never part of a result
}
