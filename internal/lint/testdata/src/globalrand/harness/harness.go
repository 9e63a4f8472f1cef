// Package harness is the allowlist-boundary fixture for globalrand: a
// "harness" path element exempts orchestration code, whose jitter does
// not feed any simulation.
package harness

import "math/rand"

// Jitter spreads worker start times; not model randomness.
func Jitter() float64 { return rand.Float64() }

// Fresh builds a throwaway source for worker jitter. Legal here.
func Fresh(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
