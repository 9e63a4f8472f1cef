// Package engine implements the discrete-event simulation kernel.
//
// A Sim handle fronts a core that owns the clock, the event queue and the
// random number source. All model components (links, switches, NICs,
// traffic generators) schedule callbacks through a handle; the run loop
// pops events in timestamp order, up to its horizon, and executes them.
// The queue is a radix heap (internal/eventq), which requires that no
// event is scheduled before the last one popped: At and AtArrival reject
// any time before the clock, which never runs behind the last pop, so a
// model can never break that precondition. Each core is strictly
// single-threaded: determinism and the absence of locking are both
// consequences of that choice, following the design of classical network
// simulators.
//
// Two handles exist per core. New returns the *control* handle, held by
// scenario and harness code (tickers, measurement probes, fault
// transitions); Model returns the *model* handle the topology layer gives
// to switches, NICs and links. The handle's class is the first part of
// the equal-time order, (class, k1, k2) — see internal/eventq: at one
// timestamp control events fire first, so probes and fault transitions
// observe the state before same-instant model activity; then link
// arrivals, ordered by (direction ID, frame sequence); then local model
// events, in scheduling order.
package engine

import (
	"fmt"
	"math/rand"

	"dcqcn/internal/eventq"
	"dcqcn/internal/simtime"
)

// core is one event loop: clock, queue, digest and random source.
type core struct {
	now   simtime.Time
	queue eventq.Queue
	// rng is the control stream, built at the first Rand call: only
	// tests and harness code draw from it, and a rand source is 5 KB.
	rng    *rand.Rand
	seed   int64
	events uint64
	hash   uint64
	halted bool
	pushes uint64 // equal-time ordinal for control/local pushes
	ids    uint64 // link-direction ID allocator (NextID)
}

// Sim is a scheduling handle onto a simulator core. The zero value is not
// usable; create instances with New and Model.
type Sim struct {
	c     *core
	class uint8
}

// New creates a simulator whose random source is seeded with seed and
// returns its control handle. Identical seeds (with identical models)
// produce identical runs.
func New(seed int64) *Sim {
	c := &core{seed: seed, hash: fnvOffset64}
	return &Sim{c: c, class: eventq.ClassControl}
}

// Model returns the model-class sibling handle sharing this handle's core:
// events it schedules order after control events at equal timestamps. The
// topology layer hands it to every component it builds.
func (s *Sim) Model() *Sim {
	return &Sim{c: s.c, class: eventq.ClassLocal}
}

// Now returns the current simulated time.
//
//hot:path
func (s *Sim) Now() simtime.Time { return s.c.now }

// Seed returns the seed the simulator was created with.
func (s *Sim) Seed() int64 { return s.c.seed }

// Rand returns the simulation's random source, seeded with the
// simulator's seed: NewStream(Seed()), built at the first call and the
// same source on every later one. Model components must not draw from it
// directly — they derive private streams with NewStream so draw order
// stays independent of event interleaving — but tests and harness code
// may.
func (s *Sim) Rand() *rand.Rand {
	if s.c.rng == nil {
		s.c.rng = s.NewStream(s.c.seed)
	}
	return s.c.rng
}

// NewStream returns an additional deterministic random source for
// auxiliary randomness — workload sizes, placement, per-component model
// draws — that must not perturb the primary stream (drawing from Rand()
// shifts every later draw, so interleaving auxiliary and model draws
// couples them). The stream is a pure function of the argument,
// independent of the simulator's own seed; pass a run- or
// component-derived value. It is the only place the determinism contract
// lets the simulator construct a rand source (see internal/lint); Rand
// builds the control stream through it.
func (s *Sim) NewStream(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// NextID allocates a small unique ordinal from the core. The link layer
// uses it to give every link direction an identity — the primary
// equal-time key of its arrivals and the seed of its loss stream. IDs
// follow construction order, so they are a pure function of the
// topology.
func (s *Sim) NextID() uint64 {
	id := s.c.ids
	s.c.ids++
	return id
}

// Events returns the number of events executed so far.
func (s *Sim) Events() uint64 { return s.c.events }

// Run digest constants: the FNV-1a 64-bit offset basis seeds the hash,
// and mix multiplies by an odd 64-bit constant (the golden ratio's
// fractional bits).
const (
	fnvOffset64 = 14695981039346656037
	mixMul      = 0x9E3779B97F4A7C15
)

// Digest summarizes an execution: the number of events executed and a
// word-wise hash over every executed event's (timestamp, ordinal) pair. Two
// runs of the same model with the same seed must produce identical
// digests; a mismatch means nondeterminism crept in (map iteration,
// shared RNG, wall-clock leakage). The sweep harness uses this as its
// determinism gate.
type Digest struct {
	Events uint64 `json:"events"`
	Hash   uint64 `json:"hash"`
}

// String renders the digest as "events:hash".
func (d Digest) String() string { return fmt.Sprintf("%d:%016x", d.Events, d.Hash) }

// Digest returns the run digest accumulated so far.
func (s *Sim) Digest() Digest { return Digest{Events: s.c.events, Hash: s.c.hash} }

// mix folds one 64-bit word into the run digest at once: xor, multiply,
// then fold the high half down, since a multiply only carries low bits
// upward. Each step is a bijection of the state, so two executions that
// differ in any one folded word always digest differently.
//
//hot:path
func (c *core) mix(v uint64) {
	h := (c.hash ^ v) * mixMul
	c.hash = h ^ h>>32
}

// fold records one executed event at time t in the digest.
//
//hot:path
func (c *core) fold(t simtime.Time) {
	c.events++
	c.mix(uint64(t))
	c.mix(c.events)
}

// At schedules fn to run at absolute time t and returns a cancellable
// handle. Scheduling in the past panics: it always indicates a model bug,
// and silently reordering time would corrupt results.
//
// Event headers are pooled (internal/eventq), so the handle is a value
// checked against the header's generation: it stays safe to Cancel or
// query after the event fired, however long it is kept.
//
//hot:path
func (s *Sim) At(t simtime.Time, fn func()) eventq.Handle {
	if t < s.c.now {
		panic(fmt.Sprintf("engine: event scheduled in the past (%v < %v)", t, s.c.now))
	}
	k := eventq.Key{Class: s.class, K1: s.c.pushes}
	s.c.pushes++
	return s.c.queue.PushKeyed(t, k, fn)
}

// AtArrival schedules a link-arrival event: fn(arg) runs at time t,
// after control events and before local model events at the same
// timestamp, and ordered among arrivals by the link direction ID and the
// per-direction frame sequence number rather than by insertion order.
// The link passes one continuation per direction, bound at
// construction, and the frame as arg, so an arrival allocates nothing.
//
//hot:path
func (s *Sim) AtArrival(t simtime.Time, dir, seq uint64, fn func(any), arg any) eventq.Handle {
	if t < s.c.now {
		panic(fmt.Sprintf("engine: arrival scheduled in the past (%v < %v)", t, s.c.now))
	}
	k := eventq.Key{Class: eventq.ClassArrival, K1: dir, K2: seq}
	return s.c.queue.PushKeyedArg(t, k, fn, arg)
}

// After schedules fn to run d after the current time.
//
//hot:path
func (s *Sim) After(d simtime.Duration, fn func()) eventq.Handle {
	if d < 0 {
		panic(fmt.Sprintf("engine: negative delay %v", d))
	}
	return s.At(s.c.now.Add(d), fn)
}

// Cancel removes a pending event. Safe to call with the zero handle or
// the handle of an event that already fired or was cancelled.
//
//hot:path
func (s *Sim) Cancel(h eventq.Handle) { s.c.queue.Cancel(h) }

// Rearm supersedes the event behind h with fn at time t and returns the
// new handle: the same as Cancel(h) followed by At(t, fn), with the same
// ordinal and so the same order, but a pending event is re-armed in place
// (eventq's RearmKeyed) instead of leaving the queue and joining it
// again. A model re-arming a timer on every packet or CNP calls this. It
// panics where At would.
//
//hot:path
func (s *Sim) Rearm(h eventq.Handle, t simtime.Time, fn func()) eventq.Handle {
	if t < s.c.now {
		panic(fmt.Sprintf("engine: event re-armed in the past (%v < %v)", t, s.c.now))
	}
	k := eventq.Key{Class: s.class, K1: s.c.pushes}
	s.c.pushes++
	return s.c.queue.RearmKeyed(h, t, k, fn)
}

// Halt stops the run loop after the current event returns. Pending events
// remain queued; Run can be called again to continue.
func (s *Sim) Halt() { s.c.halted = true }

// Run executes events until the queue is empty or simulated time would
// pass until. Events scheduled exactly at until still execute. It returns
// the number of events executed by this call.
//
//hot:path
func (s *Sim) Run(until simtime.Time) uint64 {
	c := s.c
	c.halted = false
	start := c.events
	for !c.halted {
		e := c.queue.PopUntil(until)
		if e == nil {
			break
		}
		if e.At < c.now {
			poppedPast(e.At, c.now)
		}
		c.now = e.At
		c.fold(e.At)
		e.Fire()
	}
	// Advance the clock to the horizon so measurements made "at the end of
	// the run" (throughput over the window, etc.) see the full window even
	// if the last event fired earlier.
	if c.now < until && until != simtime.Forever {
		c.now = until
	}
	return c.events - start
}

// poppedPast reports the arrow of time broken at the run loop itself:
// At and After already reject past scheduling at the call site, so a
// popped event behind the clock means the queue's ordering broke (heap
// corruption, a mutated Event.At). It stays out of line: inlined, the
// formatted message's arguments would escape to the heap inside Run.
//
//go:noinline
func poppedPast(at, now simtime.Time) {
	panic(fmt.Sprintf("engine: invariant violation: popped event at %v behind clock %v", at, now))
}

// RunAll executes events until the queue drains completely.
//
//hot:path
func (s *Sim) RunAll() uint64 { return s.Run(simtime.Forever) }

// Pending returns the number of events waiting in the queue.
func (s *Sim) Pending() int { return s.c.queue.Len() }

// Ticker invokes fn every period until the returned stop function is
// called. The first invocation happens one period from now. fn receives
// the current time.
func (s *Sim) Ticker(period simtime.Duration, fn func(simtime.Time)) (stop func()) {
	if period <= 0 {
		panic("engine: non-positive ticker period")
	}
	stopped := false
	var tick func()
	var handle eventq.Handle
	tick = func() {
		if stopped {
			return
		}
		// Re-arm before invoking fn: the next tick is already queued while
		// the callback runs (so nested Run loops keep ticking and Pending
		// counts it), and stop() called from within fn cancels that
		// freshly scheduled tick through the shared handle.
		handle = s.After(period, tick)
		fn(s.c.now)
	}
	handle = s.After(period, tick)
	return func() {
		stopped = true
		s.Cancel(handle)
	}
}
