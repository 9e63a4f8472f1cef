// Package a exercises the maporder analyzer: map-range bodies with
// order-sensitive effects are flagged; sorted-key collection, keyed
// stores, commutative integer accumulation and waived loops pass.
package a

import (
	"fmt"
	"sort"
	"strings"
)

// collectThenSort is the canonical clean pattern: collect, then impose
// an order before anything depends on one.
func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectNoSort never orders the keys, so the slice layout is random.
func collectNoSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to "keys"`
	}
	return keys
}

// intCounter accumulates commutatively; order provably cannot matter.
func intCounter(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// floatSum is order-dependent: float addition is not associative.
func floatSum(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v // want `floating-point accumulation into "s"`
	}
	return s
}

// keyedStore writes disjoint slots per distinct key; the final map is
// independent of write order.
func keyedStore(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}

// lastWriter leaks whichever iteration happened to come last.
func lastWriter(m map[string]int) string {
	var last string
	for k := range m {
		last = k // want `write to "last"`
	}
	return last
}

// methodCall feeds iteration order into outer state through a method.
func methodCall(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `call to b\.WriteString on state declared outside`
	}
	return b.String()
}

// closureCall invokes an outer function value per key; whatever it
// captures sees the keys in random order.
func closureCall(m map[string]int, emit func(string)) {
	for k := range m {
		emit(k) // want `call through function value "emit"`
	}
}

// send publishes keys on a channel in iteration order.
func send(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want `send on channel "ch"`
	}
}

// annotated carries a justified waiver on the reported statement and
// passes.
func annotated(m map[string]int, sink func(string)) {
	for k := range m {
		//lint:allow maporder sink deduplicates internally; delivery order is immaterial
		sink(k)
	}
}

// bareAnnotation suppresses nothing: a justification is mandatory.
func bareAnnotation(m map[string]int, sink func(string)) {
	for k := range m {
		//lint:allow maporder
		sink(k) // want `waiver without a reason`
	}
}

// packageCall documents a deliberate analyzer boundary: a call to a
// declared function passes, because the analyzer judges the loop body
// only, so I/O or state buried inside the callee (fmt here) escapes the
// check.
func packageCall(m map[string]int) {
	for k := range m {
		fmt.Println(k)
	}
}
