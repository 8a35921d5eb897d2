// Package maporder is the golden corpus for the maporder checker: no
// order-sensitive sink may consume map iteration order.
package maporder

import (
	"sort"
)

type tracer struct{}

func (t *tracer) Emit(ev string, fields ...any) {}

// floatAccum loses determinism: float addition is not associative, so the
// sum depends on iteration order.
func floatAccum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want "float accumulation inside range over a map"
	}
	return sum
}

// plainAccum is floatAccum spelled out: the same order dependence.
func plainAccum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum = sum + v // want "float accumulation inside range over a map"
	}
	return sum
}

// plainCount is an integer count spelled out: exact, not flagged.
func plainCount(m map[string]float64) int {
	n := 0
	for range m {
		n = n + 1
	}
	return n
}

// intAccum is exact and order-independent; it must not be flagged.
func intAccum(m map[string]int) int {
	var n int
	for _, v := range m {
		n += v
	}
	return n
}

// unsortedCollect leaks map order into a slice.
func unsortedCollect(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys inside range over a map without sorting"
	}
	return keys
}

// collectThenSort is the sanctioned idiom: the slice is sorted in the same
// block after the loop.
func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortSlice also counts: any sort.*/slices.* call over the collected slice.
func sortSlice(m map[string]float64) []float64 {
	vals := make([]float64, 0, len(m))
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// emitInRange would write trace events in map order and break trace
// byte-identity.
func emitInRange(m map[string]int, tr *tracer) {
	for k, v := range m {
		tr.Emit("entry", k, v) // want "trace emission inside range over a map"
	}
}

// mapWrite is order-independent (keyed writes) and stays legal.
func mapWrite(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// sortedKeys is the generic helper shape used by the checkpoint encoder;
// the type parameter's core type is a map, and the idiom is sanctioned.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// genericUnsorted is the same generic shape without the sort: flagged.
func genericUnsorted[M ~map[string]V, V any](m M) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys inside range over a map without sorting"
	}
	return keys
}

// rangeOverSlice is not a map range; nothing to flag.
func rangeOverSlice(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum
}
