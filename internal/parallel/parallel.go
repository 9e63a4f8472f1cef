// Package parallel shards one simulation across cores.
//
// A finished topology is partitioned into shards (internal/topology's
// Partition keeps pods together and puts every host on its ToR's shard),
// each shard's switches and NICs are rebound onto a private simulator
// core, and the cores advance together under a conservative synchronization
// protocol whose lookahead is the minimum propagation delay of the links
// the partition cut: a shard executing events up to time T can only
// influence another shard at T + lookahead or later, so all shards may
// safely run a window of that width in parallel.
//
// The result is not "approximately the same simulation, faster" — it is
// the same simulation. Three mechanisms make sharded and sequential runs
// bit-identical:
//
//   - Equal-time event order is mode-independent (internal/eventq):
//     control events first, then link arrivals keyed by the intrinsic
//     (direction ID, frame sequence) pair, then each component's local
//     events. None of those keys mention a queue-global counter, so it
//     does not matter whether one core or eight executed the events.
//
//   - Control events (scenario tickers, measurement probes, fault
//     transitions) run stop-the-world: the coordinator halts every shard
//     at the control timestamp, advances the shard clocks to it, and runs
//     the control core alone — so a probe reads exactly the model state a
//     sequential run would show it, and fault writes are plain writes.
//
//   - Frames crossing a cut link travel as timestamped messages, injected
//     into the destination shard's queue at the window barrier with the
//     same (time, direction, sequence) key a sequential run would have
//     used, and the run digest is reconstructed on the control core by
//     merging per-shard executed-event streams in global time order
//     (equal-time fold order cannot change the digest — see
//     engine.Digest).
//
// Sharding declines quietly (the run stays sequential) when the effective
// partition has fewer than two shards — a star topology cannot split —
// or when a global observer that inspects every event is active: the
// invariant auditor build or an armed flight recorder.
package parallel

import (
	"fmt"

	"dcqcn/internal/engine"
	"dcqcn/internal/flightrec"
	"dcqcn/internal/invariant"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

func init() { topology.Sharder = Shard }

// msg is one cross-shard frame arrival: the link direction's arrival
// continuation and the frame it carries, plus the absolute arrival time
// and intrinsic ordering key it must be scheduled under on the
// destination core.
type msg struct {
	at       simtime.Time
	dir, seq uint64
	fn       func(any)
	arg      any
	dst      int
}

// shard is one partition of the network on its own core, driven by a
// worker goroutine. The coordinator communicates through cmd (window
// horizon to run) and done (window finished); those channel operations
// are also the happens-before edges that hand the shard's memory back
// and forth between worker and coordinator.
type shard struct {
	sim *engine.Sim // the shard core's control handle
	// executed collects the timestamps of events run in the current
	// window, in execution (= time) order, for the digest merge.
	executed []simtime.Time
	// outbox collects cross-shard arrivals generated in the current
	// window. Only this shard's worker appends; the coordinator drains
	// it between windows.
	outbox []msg
	cmd    chan simtime.Time
	done   chan struct{}
}

// outboundDir is the link.Transport for one direction of a cut link: it
// lives on the sending shard and queues arrivals for the destination.
type outboundDir struct {
	src *shard
	dst int
}

func (o *outboundDir) Send(at simtime.Time, dir, seq uint64, fn func(any), arg any) {
	o.src.outbox = append(o.src.outbox, msg{at: at, dir: dir, seq: seq, fn: fn, arg: arg, dst: o.dst})
}

// coord drives the shards through alternating stop-the-world control
// turns and parallel conservative windows. It is installed as the control
// core's runner, so net.Sim.Run(until) transparently runs sharded.
type coord struct {
	ctrl      *engine.Sim
	shards    []*shard
	lookahead simtime.Duration
	mergeIdx  []int
}

// Shard partitions a freshly built network across up to k cores. It is
// registered as topology.Sharder and called from the topology builders
// when Options.Shards > 1; call it directly only in tests. Sharding must
// happen before any event is scheduled.
func Shard(n *topology.Network, k int) {
	if invariant.Enabled || flightrec.Armed() {
		// Global event observers audit or record every event in one
		// stream; run sequentially rather than perturb them.
		return
	}
	p := n.Partition(k)
	if p.Shards < 2 {
		return
	}
	if n.Sim.Pending() != 0 {
		panic("parallel: cannot shard a network with scheduled events — shard at build time")
	}
	c := &coord{ctrl: n.Sim, mergeIdx: make([]int, p.Shards)}
	for s := 0; s < p.Shards; s++ {
		core := engine.New(n.Sim.Seed())
		// Preallocate the per-window buffers: executed is reused across
		// windows via RunWindow(horizon, executed[:0]) and outbox via the
		// barrier drain, so seeding real capacity here keeps the first
		// windows from growing them with repeated reallocation on the
		// event path.
		sh := &shard{
			sim:      core,
			executed: make([]simtime.Time, 0, 4096),
			outbox:   make([]msg, 0, 256),
		}
		c.shards = append(c.shards, sh)
		msim := core.Model()
		for _, sw := range n.ShardSwitches(p, s) {
			sw.Rebind(msim)
		}
		for _, h := range n.ShardHosts(p, s) {
			h.Rebind(msim)
		}
	}
	c.lookahead = simtime.Forever.Sub(0)
	for _, cl := range p.Cross {
		d := cl.Link.Delay()
		if d <= 0 {
			panic(fmt.Sprintf("parallel: cut link has zero propagation delay — no lookahead (shards %d/%d)", cl.A, cl.B))
		}
		if d < c.lookahead {
			c.lookahead = d
		}
		// Direction 0 carries frames from endpoint a (shard cl.A) to
		// endpoint b (shard cl.B); direction 1 the reverse.
		cl.Link.SetTransport(0, &outboundDir{src: c.shards[cl.A], dst: cl.B})
		cl.Link.SetTransport(1, &outboundDir{src: c.shards[cl.B], dst: cl.A})
	}
	n.Sim.SetRunner(c.run)
}

// serve is the worker loop: run each commanded window on the shard core,
// collecting executed timestamps, until the coordinator closes cmd.
func (sh *shard) serve() {
	for horizon := range sh.cmd {
		sh.executed = sh.sim.RunWindow(horizon, sh.executed[:0])
		sh.done <- struct{}{}
	}
}

// run is the sharded replacement for the sequential event loop. Workers
// live for the duration of one call; scenario code only ever observes the
// simulation between Run calls or inside control events, where every
// worker is parked at a barrier.
func (c *coord) run(until simtime.Time) {
	for _, sh := range c.shards {
		// Fresh channels per Run call: the previous call closed cmd to
		// retire its workers, and scenarios Run repeatedly (warmup, then
		// measurement).
		sh.cmd = make(chan simtime.Time)
		sh.done = make(chan struct{})
		go sh.serve()
	}
	defer func() {
		for _, sh := range c.shards {
			close(sh.cmd)
		}
	}()
	for {
		tc := c.ctrl.NextEventTime()
		tmin := simtime.Forever
		for _, sh := range c.shards {
			if t := sh.sim.NextEventTime(); t < tmin {
				tmin = t
			}
		}
		next := tc
		if tmin < next {
			next = tmin
		}
		if next > until || next == simtime.Forever {
			break
		}
		if tc <= tmin {
			// Control turn, stop-the-world. Shard clocks advance to the
			// control timestamp first so probes and fault transitions
			// observe the same "now" everywhere, and so model events the
			// control code schedules (opening a flow fires its first
			// send immediately) land at legal times on shard cores.
			// Running all control events at tc before any shard event at
			// tc is exactly the sequential equal-time class order.
			for _, sh := range c.shards {
				sh.sim.SetNow(tc)
			}
			c.ctrl.RunLocal(tc)
			continue
		}
		// Parallel window: every shard may run strictly below horizon —
		// bounded by the earliest possible cross-shard influence
		// (tmin + lookahead), the next control event, and the run end.
		// The lookahead bound is skipped when it overflows (wa < tmin):
		// that only happens for the no-cut-links sentinel, where shards
		// cannot influence each other at all.
		horizon := tc
		if until != simtime.Forever {
			// One tick past until: RunWindow's bound is strict, and events
			// scheduled exactly at until must run, as the sequential loop
			// runs them.
			if end := until.Add(simtime.Picosecond); end < horizon {
				horizon = end
			}
		}
		if wa := tmin.Add(c.lookahead); wa > tmin && wa < horizon {
			horizon = wa
		}
		for _, sh := range c.shards {
			sh.cmd <- horizon
		}
		for _, sh := range c.shards {
			<-sh.done
		}
		c.mergeExecuted()
		c.injectOutboxes()
		adv := horizon
		if adv > until {
			adv = until
		}
		for _, sh := range c.shards {
			sh.sim.SetNow(adv)
		}
		c.ctrl.SetNow(adv)
	}
	// Advance all clocks to the horizon, exactly as the sequential loop
	// does, so end-of-window measurements agree.
	if until != simtime.Forever {
		for _, sh := range c.shards {
			sh.sim.SetNow(until)
		}
		c.ctrl.SetNow(until)
	}
}

// mergeExecuted folds every shard-executed event of the last window into
// the control core's digest in global time order. Each shard's list is
// already time-sorted, so this is a k-way merge; ties break by shard
// index, which the digest cannot observe (equal-time folds commute — see
// engine.Digest).
func (c *coord) mergeExecuted() {
	idx := c.mergeIdx
	for i := range idx {
		idx[i] = 0
	}
	for {
		best := -1
		var bt simtime.Time
		for si, sh := range c.shards {
			if idx[si] < len(sh.executed) {
				if t := sh.executed[idx[si]]; best < 0 || t < bt {
					best, bt = si, t
				}
			}
		}
		if best < 0 {
			return
		}
		c.ctrl.FoldExecuted(bt)
		idx[best]++
	}
}

// injectOutboxes schedules every cross-shard arrival generated in the
// last window onto its destination core. Lookahead guarantees the arrival
// time is at or beyond every shard's horizon, and the intrinsic
// (direction, sequence) key slots it into the destination queue exactly
// where a sequential run would have put it.
func (c *coord) injectOutboxes() {
	for _, sh := range c.shards {
		for _, m := range sh.outbox {
			c.shards[m.dst].sim.AtArrival(m.at, m.dir, m.seq, m.fn, m.arg)
		}
		sh.outbox = sh.outbox[:0]
	}
}
