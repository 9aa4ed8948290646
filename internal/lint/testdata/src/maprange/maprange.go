// Package xbar is a deterministic-core stand-in (core packages are
// matched by name) carrying planted map iterations for the simclock
// analyzer's map-range golden test.
package xbar

import "sort"

type set map[string]int

// badRange sums in map order; flagged even though addition commutes,
// because the analyzer cannot tell.
func badRange(m map[string]int) int {
	n := 0
	for _, v := range m { // want: map range
		n += v
	}
	return n
}

// badNamed ranges over a named map type.
func badNamed(s set) []string {
	var keys []string
	for k := range s { // want: map range through a named type
		keys = append(keys, k)
	}
	return keys
}

// okSlice ranges over a slice; allowed.
func okSlice(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// okSuppressed collects keys and sorts them, which the suppression
// records.
func okSuppressed(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	//salus-lint:ignore simclock keys are sorted below before any use
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
