// Package model is a globalrand fixture: model code must draw from an
// injected *rand.Rand, never the process-global source, and must not
// construct sources of its own.
package model

import (
	"math/rand"

	harness "dcqcn/internal/lint/testdata/src/globalrand/harness"
)

// draw uses an injected source: the contract-conformant shape.
func draw(rng *rand.Rand) int {
	return rng.Intn(6)
}

// global hits the process-global convenience functions.
func global() {
	_ = rand.Intn(6)   // want `package-level rand\.Intn`
	_ = rand.Float64() // want `package-level rand\.Float64`
	_ = rand.Perm(3)   // want `package-level rand\.Perm`
}

// construct builds a private source, which hides the seed from the
// engine and forks the randomness stream.
func construct() *rand.Rand {
	return rand.New(rand.NewSource(7)) // want `rand\.New outside` `rand\.NewSource outside`
}

// laundered draws global randomness through the exempt harness, which
// the interprocedural summary flags at the call site.
func laundered() float64 {
	return harness.Jitter() // want `call into exempt package harness transitively draws from the process-global rand source`
}

// launder pulls a constructed source out of the exempt harness, where
// the per-package constructor scan never looks.
func launder() *rand.Rand {
	return harness.Fresh(7) // want `call into exempt package harness transitively constructs a rand source`
}

// ambient is package-level: shared by construction, unseedable per run.
var ambient *rand.Rand // want `package-level rand stream ambient`

//lint:allow globalrand scratch source for the doc example below; never reaches a simulation
var blessed *rand.Rand
