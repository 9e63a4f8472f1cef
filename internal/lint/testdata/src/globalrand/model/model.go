// Package model is a globalrand fixture: model code must draw from an
// injected *rand.Rand, never the process-global source, and must not
// construct sources of its own.
package model

import "math/rand"

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

// ambient is package-level: shared by construction, unseedable per run.
var ambient *rand.Rand // want `package-level rand stream ambient`

//lint:allow globalrand scratch source for the doc example below; never reaches a simulation
var blessed *rand.Rand
