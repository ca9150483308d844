// Package sim is the fixture for detflow's map-order rule; the package
// name matters, because the rule scopes itself to the result-affecting
// packages by name.
package sim

import "sort"

// First has order-dependent effects: which value it returns depends on
// iteration order.
func First(m map[int]string) string {
	for _, v := range m { // want "order-dependent effects"
		return v
	}
	return ""
}

// Keys collects but never sorts, so callers see the keys in a different
// order each run.
func Keys(m map[int]bool) []int {
	var keys []int
	for k := range m { // want `collected into keys but never sorted`
		keys = append(keys, k)
	}
	return keys
}

// SortedKeys is the canonical deterministic idiom: collect, sort, done.
func SortedKeys(m map[int]bool) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Sum performs only commutative accumulation, which is
// order-independent.
func Sum(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// AnyValue deliberately returns an arbitrary element; the suppression
// comment records why the nondeterminism is acceptable.
func AnyValue(m map[int]string) string {
	//odbgc:nondet-ok any element will do; callers treat the result as unordered
	for _, v := range m {
		return v
	}
	return ""
}
