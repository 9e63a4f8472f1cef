package faults

import (
	"fmt"

	"dcqcn/internal/link"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// Injector arms a fault plan against a network. Every fault transition
// becomes an engine event scheduled at Arm time, and the only randomness
// the injector ever draws (per-frame loss decisions) comes from an
// auxiliary RNG stream, so the run's primary random stream — and with it
// the model's event digest — is exactly what it would be for the same
// seed without the lossy fault present drawing from it.
//
// Hook ownership: the injector owns link.Link.DropHook outright — it
// installs and clears it per loss window without chaining. Passive
// observers (the internal/invariant auditor) therefore must not use
// DropHook; they observe through link.Port.OnRx/OnDeparture, which the
// injector never touches.
type Injector struct {
	net      *topology.Network
	auxSeed  int64
	outcomes []Outcome
	armed    bool
}

// NewInjector builds an injector whose loss draws come from auxiliary
// streams derived from auxSeed via Sim.NewStream: pure functions of
// auxSeed and each fault's plan index, independent of the primary
// stream. Each lossy fault gets its own stream so draw order does not
// couple faults on different links.
func NewInjector(net *topology.Network, auxSeed int64) *Injector {
	return &Injector{net: net, auxSeed: auxSeed}
}

// Arm validates the plan and schedules every activation, transition and
// clear as engine events relative to the current simulation time. It
// may be called once per injector, normally at t=0 before the workload
// starts.
func (in *Injector) Arm(plan Plan) error {
	if in.armed {
		return fmt.Errorf("faults: injector already armed")
	}
	if err := plan.Validate(in.net); err != nil {
		return err
	}
	in.armed = true
	// Pre-allocate so per-fault closures can hold stable *Outcome
	// pointers across the whole run.
	in.outcomes = make([]Outcome, len(plan))
	base := in.net.Sim.Now()
	for i, spec := range plan {
		in.outcomes[i] = Outcome{Index: i, Kind: spec.Kind, Target: spec.Target}
		o := &in.outcomes[i]
		start := base.Add(spec.Start)
		end := start.Add(spec.Duration)
		switch spec.Kind {
		case LinkFlap:
			in.armFlap(spec, o, start, end)
		case PacketLoss:
			in.armLoss(spec, o, start, end)
		case PauseStorm:
			in.armStorm(spec, o, start, end)
		case SlowReceiver:
			in.armSlowReceiver(spec, o, start, end)
		case SwitchMisconfig:
			in.armMisconfig(spec, o, start, end)
		}
	}
	return nil
}

// Outcomes returns a copy of the per-fault outcome records, in plan
// order. Call it after the run; faults whose window outlived the
// horizon report Active=true with only partial counters.
func (in *Injector) Outcomes() []Outcome {
	out := make([]Outcome, len(in.outcomes))
	copy(out, in.outcomes)
	return out
}

func (o *Outcome) activate(now simtime.Time) {
	o.ActivatedAt = now
	o.Active = true
}

func (o *Outcome) clear(now simtime.Time) {
	o.ClearedAt = now
	o.Active = false
}

// observe reports a fault transition ("activate" or "clear") to the
// network's passive OnFault observer, if one is attached. The observer
// contract keeps this digest-neutral: flight recording is the intended
// subscriber.
func (in *Injector) observe(o *Outcome, phase string) {
	if in.net.OnFault != nil {
		in.net.OnFault(o.Index, o.Kind.String(), o.Target, phase)
	}
}

// armFlap schedules FlapCount down/up cycles spread evenly over the
// window. Injected counts the link's fault drops over the window: frames
// offered while down plus frames each flap caught in flight.
func (in *Injector) armFlap(spec Spec, o *Outcome, start, end simtime.Time) {
	l := in.net.HostLink(spec.Target)
	sim := in.net.Sim
	cycles := spec.FlapCount
	if cycles <= 0 {
		cycles = 1
	}
	cycle := spec.Duration / simtime.Duration(cycles)
	down := spec.FlapDown
	if down <= 0 || down > cycle {
		down = cycle
	}
	var before int64
	sim.At(start, func() {
		o.activate(sim.Now())
		in.observe(o, "activate")
		before = l.FaultDrops()
	})
	for k := 0; k < cycles; k++ {
		at := start.Add(simtime.Duration(k) * cycle)
		sim.At(at, func() { l.SetDown(true) })
		sim.At(at.Add(down), func() { l.SetDown(false) })
	}
	sim.At(end, func() {
		l.SetDown(false) // idempotent; guarantees the link is restored
		o.Injected = l.FaultDrops() - before
		o.clear(sim.Now())
		in.observe(o, "clear")
	})
}

// armLoss installs a drop hook on the target host's link for the window.
// Decisions come from the injector's auxiliary RNG; PFC control frames
// are exempt (see Spec.LossRate).
func (in *Injector) armLoss(spec Spec, o *Outcome, start, end simtime.Time) {
	l := in.net.HostLink(spec.Target)
	sim := in.net.Sim
	rng := sim.NewStream(in.auxSeed + int64(o.Index+1)*0x6A09E667F3BCC909)
	sim.At(start, func() {
		o.activate(sim.Now())
		in.observe(o, "activate")
		l.DropHook = func(_ *link.Port, pkt *packet.Packet) bool {
			if pkt.IsControl() {
				return false
			}
			if rng.Float64() < spec.LossRate {
				o.Injected++
				return true
			}
			return false
		}
	})
	sim.At(end, func() {
		l.DropHook = nil
		o.clear(sim.Now())
		in.observe(o, "clear")
	})
}

// armStorm makes the target NIC assert XOFF on its data priority (or
// spec.Priority) immediately and on every refresh period — the §2
// malfunctioning NIC. Clearing only stops the refresh ticker; no XON is
// sent, so the peer port recovers when the last pause quanta expire.
func (in *Injector) armStorm(spec Spec, o *Outcome, start, end simtime.Time) {
	h := in.net.Host(spec.Target)
	sim := in.net.Sim
	period := spec.Period
	if period <= 0 {
		period = link.DefaultPauseDuration / 2
	}
	var stop func()
	sim.At(start, func() {
		o.activate(sim.Now())
		in.observe(o, "activate")
		prio := spec.Priority
		if prio == 0 {
			prio = h.DataPriority()
		}
		xoff := func() {
			h.Port().SendPFC(prio, true)
			o.Injected++
		}
		xoff()
		stop = sim.Ticker(period, func(simtime.Time) { xoff() })
	})
	sim.At(end, func() {
		if stop != nil {
			stop()
		}
		o.clear(sim.Now())
		in.observe(o, "clear")
	})
}

// armSlowReceiver throttles the target NIC's receive pipeline to
// DrainRate for the window, then restores the configured rate.
func (in *Injector) armSlowReceiver(spec Spec, o *Outcome, start, end simtime.Time) {
	h := in.net.Host(spec.Target)
	sim := in.net.Sim
	var prev simtime.Rate
	sim.At(start, func() {
		o.activate(sim.Now())
		in.observe(o, "activate")
		prev = h.Config().RxProcessingRate
		h.SetRxProcessingRate(spec.DrainRate)
	})
	sim.At(end, func() {
		h.SetRxProcessingRate(prev)
		o.clear(sim.Now())
		in.observe(o, "clear")
	})
}

// armMisconfig applies the spec's switch-config overrides for the window
// and restores the switch's previous configuration afterwards.
func (in *Injector) armMisconfig(spec Spec, o *Outcome, start, end simtime.Time) {
	sw := in.net.Switch(spec.Target)
	sim := in.net.Sim
	sim.At(start, func() {
		o.activate(sim.Now())
		in.observe(o, "activate")
		prev := sw.Config()
		if spec.Beta > 0 {
			sw.SetBeta(spec.Beta)
		}
		if spec.StaticPFCThreshold > 0 {
			sw.SetStaticPFCThreshold(spec.StaticPFCThreshold)
		}
		markingSkewed := spec.KMin > 0 || spec.KMax > 0 || spec.PMax > 0
		if markingSkewed {
			m := prev.Marking
			if spec.KMin > 0 {
				m.KMin = spec.KMin
			}
			if spec.KMax > 0 {
				m.KMax = spec.KMax
			}
			if spec.PMax > 0 {
				m.PMax = spec.PMax
			}
			sw.SetMarking(m)
		}
		sim.At(end, func() {
			if prev.Beta > 0 {
				sw.SetBeta(prev.Beta)
			}
			sw.SetStaticPFCThreshold(prev.StaticPFCThreshold)
			if markingSkewed {
				sw.SetMarking(prev.Marking)
			}
			o.clear(sim.Now())
			in.observe(o, "clear")
		})
	})
}
