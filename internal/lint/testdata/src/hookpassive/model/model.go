// Package model exercises the hookpassive analyzer: subscribers
// registered through hooks.Chain* or ChainOn* helpers must not
// transitively write //acct: counters, schedule events, or mutate
// model state.
package model

import (
	engine "dcqcn/internal/lint/testdata/src/hookpassive/engine"
	hooks "dcqcn/internal/lint/testdata/src/hookpassive/hooks"
)

// Packet is the observed value.
type Packet struct{ Size int64 }

// Port is a hook point with an accounting field.
type Port struct {
	OnRx func(*Packet)
	//acct: packets handed to the application
	Delivered int64
}

// ChainOnRx relays its caller's subscriber without clobbering earlier
// ones. The subscriber is a parameter, so the passivity obligation
// moves to each caller's registration site.
func (p *Port) ChainOnRx(fn func(*Packet)) {
	p.OnRx = hooks.Chain(p.OnRx, fn)
}

var seen int64

// passive observes and touches nothing: the contract-conformant shape.
func passive(p *Packet) {}

// countsGlobal mutates package-level model state.
func countsGlobal(p *Packet) { seen++ }

// Tap schedules follow-up work from inside a hook: active, not passive.
type Tap struct{ sim *engine.Sim }

// OnPacket re-enters the event loop.
func (t *Tap) OnPacket(p *Packet) { t.sim.At(0, func() {}) }

// Bump writes the port's conservation counter from a hook.
type Bump struct{ port *Port }

// OnPacket double-counts deliveries.
func (b *Bump) OnPacket(p *Packet) { b.port.Delivered++ }

// Attach exercises flagged and blessed registrations.
func Attach(p *Port, t *Tap, b *Bump) {
	p.OnRx = hooks.Chain(p.OnRx, passive)
	p.OnRx = hooks.Chain(p.OnRx, countsGlobal) // want `hook subscriber model\.countsGlobal mutates model state`
	p.OnRx = hooks.Chain(p.OnRx, t.OnPacket)   // want `hook subscriber model\.Tap\.OnPacket schedules a simulation event`
	p.ChainOnRx(b.OnPacket)                    // want `hook subscriber model\.Bump\.OnPacket writes an //acct: accounting field`
}

// pick returns a subscriber the analyzer cannot see through.
func pick(fns []func(*Packet)) func(*Packet) { return fns[0] }

// AttachDynamic registers function values: unverifiable without a
// waiver.
func AttachDynamic(p *Port, fns []func(*Packet)) {
	f := pick(fns)
	p.OnRx = hooks.Chain(p.OnRx, f) // want `hook subscriber cannot be resolved statically`
	//lint:allow hookpassive fns holds this package's own probes, all of them passive by review
	p.OnRx = hooks.Chain(p.OnRx, f)
}
