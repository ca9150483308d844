// Package trace is the direct-allocation fixture for the hotcall
// analyzer: allocating constructs in a //odbgc:hotpath function's own
// body, reported where they stand. The rule keys on the annotation, not
// the package name.
package trace

import "fmt"

// Hot is annotated, so every allocating construct in it is a finding.
//
//odbgc:hotpath
func Hot(xs []int, n int) []int {
	buf := make([]int, n) // want `make allocates in hot path`
	xs = append(xs, n)    // want `append may grow its backing array`
	copy(buf, xs)
	return xs
}

// HotLog calls into fmt, which allocates for formatting state.
//
//odbgc:hotpath
func HotLog(v int) {
	fmt.Println(v) // want `fmt.Println allocates in hot path`
}

// HotBox passes a concrete value where an interface is expected, boxing
// it.
//
//odbgc:hotpath
func HotBox(v int) {
	sink(v) // want `passing concrete value as interface`
}

func sink(v any) { _ = v }

// HotCounter returns a closure that captures total, forcing it to the
// heap.
//
//odbgc:hotpath
func HotCounter() func() int {
	total := 0
	return func() int { // want `closure capturing total`
		total++
		return total
	}
}

// HotAmortized documents a deliberate allocation: the append is amortized
// and a runtime guard proves the steady state free.
//
//odbgc:hotpath
func HotAmortized(xs []int, v int) []int {
	return append(xs, v) //odbgc:alloc-ok amortized growth, guarded at runtime
}

// Cold is not annotated: the analyzer leaves it alone.
func Cold(n int) []int {
	return make([]int, n)
}
