package experiments

import (
	"fmt"

	"dcqcn/internal/cc"
	"dcqcn/internal/engine"
	"dcqcn/internal/fabric"
	"dcqcn/internal/faults"
	"dcqcn/internal/harness"
	"dcqcn/internal/invariant"
	"dcqcn/internal/nic"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// This file is the chaos suite: scenarios that drive the fault-injection
// subsystem (internal/faults) against the paper's configurations to
// reproduce its operational pathologies — §2's pause-storm outage, PFC
// cascades victimizing innocent flows, link flaps and random loss meeting
// go-back-N recovery, and the cyclic-buffer-dependency deadlock hazard.
// Every scenario shares a timeline convention derived from the fidelity:
// warm up, measure a pre-fault baseline, hold the fault for a third of
// the measurement window, then watch recovery until the horizon.

// chaosAuxSeed offsets the injector's RNG stream from the run seed so
// fault draws never alias other auxiliary streams an experiment creates.
const chaosAuxSeed = 0x5EED_FA01

// chaosTimeline fixes the phases of a chaos run for a fidelity.
type chaosTimeline struct {
	faultStart simtime.Time     // == warmup end
	faultEnd   simtime.Time     // fault cleared
	end        simtime.Time     // run horizon
	faultDur   simtime.Duration // fault window length
	period     simtime.Duration // probe sampling period
}

func newChaosTimeline(fid Fidelity) chaosTimeline {
	fdur := fid.Duration / 3
	start := simtime.Time(fid.Warmup)
	return chaosTimeline{
		faultStart: start,
		faultEnd:   start.Add(fdur),
		end:        simtime.Time(fid.Warmup + fid.Duration),
		faultDur:   fdur,
		period:     fid.Duration / 100,
	}
}

// chunkedLoop keeps a flow backlogged with 100 KB messages so the
// probe's PayloadAcked counter (credited per completed message) advances
// with finer granularity than a sampling window at line rate.
func chunkedLoop(f *nic.Flow) {
	repostLoop(f, 100*1000, func(rocev2.Completion) {})
}

// deepLoop keeps a flow backlogged with 64 MB messages: with the
// uncapped transport window the sender pours a full window (~24 MB)
// toward a wedged destination instead of stalling on a small message,
// which is what actually drives switch ingress queues across the PFC
// threshold during a storm.
func deepLoop(f *nic.Flow) {
	repostLoop(f, 64*1000*1000, func(rocev2.Completion) {})
}

// payloadProbe samples a flow's acknowledged payload bytes.
func payloadProbe(net *topology.Network, f *nic.Flow, period simtime.Duration) *faults.Probe {
	return faults.NewProbe(net.Sim, period, func() int64 { return f.Stats().PayloadAcked })
}

// phaseMetrics reduces a probe's time series around the fault window to
// the per-fault outcome metrics every chaos scenario reports: baseline,
// depth of collapse, post-fault throughput and recovery latency (first
// window back above half the baseline after the fault cleared).
func phaseMetrics(m harness.Metrics, p *faults.Probe, tl chaosTimeline, prefix string) {
	base := p.MeanRate(tl.faultStart/2, tl.faultStart)
	during := p.MeanRate(tl.faultStart, tl.faultEnd)
	duringMin := p.MinRate(tl.faultStart, tl.faultEnd)
	afterFrom := tl.faultEnd.Add(tl.end.Sub(tl.faultEnd) / 2)
	after := p.MeanRate(afterFrom, tl.end)

	m[prefix+"base_gbps"] = gbps(float64(base))
	m[prefix+"during_gbps"] = gbps(float64(during))
	m[prefix+"during_min_gbps"] = gbps(float64(duringMin))
	m[prefix+"after_gbps"] = gbps(float64(after))
	if base > 0 {
		m[prefix+"collapse_frac"] = float64(duringMin) / float64(base)
	}
	rec, ok := p.RecoveryTime(tl.faultEnd, base/2)
	if ok {
		m[prefix+"recovered"] = 1
		m[prefix+"recovery_us"] = rec.Microseconds()
	} else {
		m[prefix+"recovered"] = 0
	}
}

// RegisterChaosScenarios registers the fault-injection suite with reg.
// Scenario names share the "chaos-" prefix so `-scenario 'chaos-*'`
// selects exactly this suite.
func RegisterChaosScenarios(reg *harness.Registry, fid Fidelity) {
	seeds := harness.Runs(fid.Runs)
	registerChaosPauseStorm(reg, fid, seeds)
	registerChaosFlapIncast(reg, fid, seeds)
	registerChaosLossyLink(reg, fid, seeds)
	registerChaosVictimStorm(reg, fid, seeds)
	registerChaosDeadlockProbe(reg, fid, seeds)
}

// ChaosPauseStormRun reproduces the §2 outage in miniature on a single
// switch: H4's NIC storms PAUSE on the data class, the switch egress
// toward H4 wedges, traffic destined to H4 parks in the switch's ingress
// queues until PFC back-pressures the senders' ports — and the innocent
// flow H1->H2, which never goes near H4, collapses with them. DCQCN
// cannot prevent this: the storm severs the ECN feedback loop (marked
// packets never reach the stormed receiver), which is exactly why the
// paper's fix was NIC firmware plus watchdogs, not congestion control.
func ChaosPauseStormRun(mode Mode, run uint64, fid Fidelity) (harness.Metrics, engine.Digest) {
	opts := options(mode, run*7919+3, fid)
	net := topology.NewStar(int64(run)*104729+11, 4, opts)
	tl := newChaosTimeline(fid)
	aud := invariant.Attach(net)

	in := faults.NewInjector(net, chaosAuxSeed)
	mustArm(in, faults.Plan{{
		Kind:     faults.PauseStorm,
		Target:   "H4",
		Start:    simtime.Duration(tl.faultStart),
		Duration: tl.faultDur,
	}})

	open := openFlow(net)
	innocent := open("H1", "H2") // never touches H4
	chunkedLoop(innocent)
	deepLoop(open("H1", "H4")) // drags H1's port into the cascade
	deepLoop(open("H3", "H4")) // keeps the wedged egress backlogged

	probe := payloadProbe(net, innocent, tl.period)
	net.Sim.Run(tl.end)
	aud.MustClean()

	m := harness.Metrics{}
	phaseMetrics(m, probe, tl, "innocent_")
	o := in.Outcomes()[0]
	m["storm_frames"] = float64(o.Injected)
	prio := net.Host("H1").DataPriority()
	m["sender_paused_us"] = net.Host("H1").Port().Stats.PausedFor[prio].Microseconds()
	m["drops"] = float64(totalDrops(net))
	return m, net.Sim.Digest()
}

func registerChaosPauseStorm(reg *harness.Registry, fid Fidelity, seeds []int64) {
	var points []harness.Point
	for _, mo := range []Mode{ModePFCOnly, ModeDCQCN} {
		points = append(points, harness.Point{
			Label: modeLabel(mo), Params: map[string]float64{"mode": float64(mo)},
		})
	}
	reg.Register(harness.Scenario{
		Name:        "chaos-pause-storm",
		Description: "Sec. 2 outage: NIC pause storm freezes an innocent flow through PFC back-pressure",
		Points:      points,
		Seeds:       seeds,
		Run: func(rc harness.RunContext) harness.RunResult {
			m, dig := ChaosPauseStormRun(Mode(rc.Point.Params["mode"]), uint64(rc.Seed), fid)
			return harness.RunResult{Metrics: m, Digest: dig}
		},
	})
}

// ChaosFlapIncastRun runs an 8:1 incast while one sender's host link
// flaps: frames in flight are cut mid-transfer and the flapped flow must
// recover through go-back-N timeouts while its seven peers keep the
// bottleneck saturated.
func ChaosFlapIncastRun(flaps int, run uint64, fid Fidelity) (harness.Metrics, engine.Digest) {
	opts := options(ModeDCQCN, run*7919+5, fid)
	// The deployment-era 16 ms RTO would eat the whole measurement
	// window; ConnectX-4-class firmware recovers in low milliseconds.
	opts.NIC.Transport.RTO = 2 * simtime.Millisecond
	net := topology.NewStar(int64(run)*104729+13, 9, opts)
	tl := newChaosTimeline(fid)
	aud := invariant.Attach(net)

	in := faults.NewInjector(net, chaosAuxSeed)
	mustArm(in, faults.Plan{{
		Kind:      faults.LinkFlap,
		Target:    "H1",
		Start:     simtime.Duration(tl.faultStart),
		Duration:  tl.faultDur,
		FlapCount: flaps,
		FlapDown:  tl.faultDur / simtime.Duration(2*max(flaps, 1)),
	}})

	open := openFlow(net)
	var flows []*nic.Flow
	for i := 1; i <= 8; i++ {
		f := open(fmt.Sprintf("H%d", i), "H9")
		chunkedLoop(f)
		flows = append(flows, f)
	}

	probe := payloadProbe(net, flows[0], tl.period)
	aggregate := faults.NewProbe(net.Sim, tl.period, func() int64 {
		var sum int64
		for _, f := range flows {
			sum += f.Stats().PayloadAcked
		}
		return sum
	})
	net.Sim.Run(tl.end)
	aud.MustClean()

	m := harness.Metrics{}
	phaseMetrics(m, probe, tl, "flapped_")
	m["aggregate_gbps"] = gbps(float64(aggregate.MeanRate(tl.faultStart, tl.end)))
	st := flows[0].Stats()
	m["injected_drops"] = float64(in.Outcomes()[0].Injected)
	m["retransmit_bytes"] = float64(st.RetransmitBytes)
	m["timeouts"] = float64(st.Timeouts)
	m["drops"] = float64(totalDrops(net))
	return m, net.Sim.Digest()
}

func registerChaosFlapIncast(reg *harness.Registry, fid Fidelity, seeds []int64) {
	var points []harness.Point
	for _, flaps := range []int{1, 3} {
		points = append(points, harness.Point{
			Label: fmt.Sprintf("flaps=%d", flaps), Params: map[string]float64{"flaps": float64(flaps)},
		})
	}
	reg.Register(harness.Scenario{
		Name:        "chaos-flap-incast",
		Description: "Link flap under 8:1 incast: go-back-N recovery cost while peers stay saturated",
		Points:      points,
		Seeds:       seeds,
		Run: func(rc harness.RunContext) harness.RunResult {
			m, dig := ChaosFlapIncastRun(int(rc.Point.Params["flaps"]), uint64(rc.Seed), fid)
			return harness.RunResult{Metrics: m, Digest: dig}
		},
	})
}

// ChaosLossyLinkRun measures goodput through a loss window on an
// otherwise clean path: unlike the steady-state randomloss scenario,
// the corruption switches on mid-run (from the injector's auxiliary RNG)
// and off again, so the run exposes both the §7 collapse and the
// recovery slope once the link heals.
func ChaosLossyLinkRun(lossRate float64, run uint64, fid Fidelity) (harness.Metrics, engine.Digest) {
	opts := options(ModeDCQCN, run*7919+7, fid)
	opts.NIC.Transport.RTO = 2 * simtime.Millisecond
	opts.HostLinkDelay = 25 * simtime.Microsecond // loaded multi-hop RTT, as randomloss
	net := topology.NewStar(int64(run)*104729+17, 2, opts)
	tl := newChaosTimeline(fid)
	aud := invariant.Attach(net)

	in := faults.NewInjector(net, chaosAuxSeed)
	mustArm(in, faults.Plan{{
		Kind:     faults.PacketLoss,
		Target:   "H1",
		Start:    simtime.Duration(tl.faultStart),
		Duration: tl.faultDur,
		LossRate: lossRate,
	}})

	open := openFlow(net)
	flow := open("H1", "H2")
	chunkedLoop(flow)

	probe := payloadProbe(net, flow, tl.period)
	net.Sim.Run(tl.end)
	aud.MustClean()

	m := harness.Metrics{}
	phaseMetrics(m, probe, tl, "flow_")
	st := flow.Stats()
	m["injected_drops"] = float64(in.Outcomes()[0].Injected)
	m["retransmit_bytes"] = float64(st.RetransmitBytes)
	m["retransmits"] = float64(st.Retransmits)
	m["timeouts"] = float64(st.Timeouts)
	return m, net.Sim.Digest()
}

func registerChaosLossyLink(reg *harness.Registry, fid Fidelity, seeds []int64) {
	var points []harness.Point
	for _, rate := range []float64{1e-3, 1e-2} {
		points = append(points, harness.Point{
			Label: fmt.Sprintf("loss=%g", rate), Params: map[string]float64{"loss_rate": rate},
		})
	}
	reg.Register(harness.Scenario{
		Name:        "chaos-lossy-link",
		Description: "Transient loss window on a clean path: collapse and recovery around the fault",
		Points:      points,
		Seeds:       seeds,
		Run: func(rc harness.RunContext) harness.RunResult {
			m, dig := ChaosLossyLinkRun(rc.Point.Params["loss_rate"], uint64(rc.Seed), fid)
			return harness.RunResult{Metrics: m, Digest: dig}
		},
	})
}

// ChaosVictimStormRun scales the pause storm to the Fig. 2 testbed: H44
// storms its ToR while three T1 hosts pour traffic toward it, so the
// pause cascade climbs T4 -> leaves -> spines -> T1 exactly as in §4's
// congestion-spreading argument — and a victim flow H15->H25 that shares
// only the T1 uplinks with the feeders collapses too.
func ChaosVictimStormRun(mode Mode, run uint64, fid Fidelity) (harness.Metrics, engine.Digest) {
	opts := options(mode, run*7919+9, fid)
	net := topology.NewTestbed(int64(run)*104729+19, opts)
	tl := newChaosTimeline(fid)
	aud := invariant.Attach(net)

	in := faults.NewInjector(net, chaosAuxSeed)
	mustArm(in, faults.Plan{{
		Kind:     faults.PauseStorm,
		Target:   "H44",
		Start:    simtime.Duration(tl.faultStart),
		Duration: tl.faultDur,
	}})

	open := openFlow(net)
	for _, src := range []string{"H11", "H12", "H13"} {
		deepLoop(open(src, "H44"))
	}
	victim := open("H15", "H25")
	chunkedLoop(victim)

	probe := payloadProbe(net, victim, tl.period)
	net.Sim.Run(tl.end)
	aud.MustClean()

	m := harness.Metrics{}
	phaseMetrics(m, probe, tl, "victim_")
	m["storm_frames"] = float64(in.Outcomes()[0].Injected)
	m["spine_pauses"] = float64(spinePauseCount(net))
	m["drops"] = float64(totalDrops(net))
	return m, net.Sim.Digest()
}

func registerChaosVictimStorm(reg *harness.Registry, fid Fidelity, seeds []int64) {
	var points []harness.Point
	for _, mo := range []Mode{ModePFCOnly, ModeDCQCN} {
		points = append(points, harness.Point{
			Label: modeLabel(mo), Params: map[string]float64{"mode": float64(mo)},
		})
	}
	reg.Register(harness.Scenario{
		Name:        "chaos-victim-storm",
		Description: "Sec. 4 cascade: pause storm at a ToR victimizes a flow two tiers away",
		Points:      points,
		Seeds:       seeds,
		Run: func(rc harness.RunContext) harness.RunResult {
			m, dig := ChaosVictimStormRun(Mode(rc.Point.Params["mode"]), uint64(rc.Seed), fid)
			return harness.RunResult{Metrics: m, Digest: dig}
		},
	})
}

// ChaosDeadlockProbeRun drives fabric.DetectPauseDeadlock to a genuine
// cycle: a 4-switch ring with tight static PAUSE thresholds carries
// two-hop flows in both directions while every host NIC storms PAUSE,
// wedging all host egresses at once. The poller records when the wait
// graph first closes into a cycle and whether the cycle outlives the
// storm (a self-sustaining credit loop, the true §2 nightmare) or
// dissolves with it.
func ChaosDeadlockProbeRun(run uint64, fid Fidelity) (harness.Metrics, engine.Digest) {
	opts := options(ModePFCOnly, run*7919+11, fid)
	opts.Switch.StaticPFCThreshold = 30 * 1000
	// Pace senders below ring capacity (two hosts share each ring link)
	// so steady-state congestion alone cannot close the wait graph: the
	// cycle the poller finds is the storm's doing, not the workload's.
	topology.ApplyCC(&opts, cc.Fixed(10*simtime.Gbps), true)
	net := topology.NewRing(int64(run)*104729+23, 4, opts)
	tl := newChaosTimeline(fid)
	aud := invariant.Attach(net)

	hosts := []string{"H1", "H2", "H3", "H4"}
	in := faults.NewInjector(net, chaosAuxSeed)
	var plan faults.Plan
	for _, h := range hosts {
		plan = append(plan, faults.Spec{
			Kind:     faults.PauseStorm,
			Target:   h,
			Start:    simtime.Duration(tl.faultStart),
			Duration: tl.faultDur,
		})
	}
	mustArm(in, plan)

	open := openFlow(net)
	for i, src := range hosts {
		for k := 0; k < 4; k++ {
			chunkedLoop(open(src, hosts[(i+2)%4]))
		}
	}

	sws := []*fabric.Switch{net.Switch("R1"), net.Switch("R2"), net.Switch("R3"), net.Switch("R4")}
	detectedAt := simtime.Time(-1)
	cycleLen := 0
	waitEdges := 0
	deadlockedAtEnd := false
	net.Sim.Ticker(tl.period, func(now simtime.Time) {
		cycles := fabric.DetectPauseDeadlock(sws)
		deadlockedAtEnd = len(cycles) > 0
		if len(cycles) > 0 && detectedAt < 0 {
			detectedAt = now
			cycleLen = len(cycles[0])
			waitEdges = len(fabric.PauseWaitGraph(sws))
		}
	})
	net.Sim.Run(tl.end)
	aud.MustClean()

	m := harness.Metrics{}
	if detectedAt >= 0 {
		m["deadlock_detected"] = 1
		m["time_to_deadlock_us"] = detectedAt.Sub(tl.faultStart).Microseconds()
		m["cycle_len"] = float64(cycleLen)
		m["wait_edges"] = float64(waitEdges)
	} else {
		m["deadlock_detected"] = 0
	}
	if deadlockedAtEnd {
		m["deadlocked_at_end"] = 1
	} else {
		m["deadlocked_at_end"] = 0
	}
	var forwarded int64
	for _, sw := range sws {
		forwarded += sw.Stats.Forwarded
	}
	m["forwarded"] = float64(forwarded)
	return m, net.Sim.Digest()
}

func registerChaosDeadlockProbe(reg *harness.Registry, fid Fidelity, seeds []int64) {
	reg.Register(harness.Scenario{
		Name:        "chaos-deadlock-probe",
		Description: "Storm-wedged PFC ring: drive the pause wait graph to a real cycle and time it",
		Points:      []harness.Point{{Label: "ring4", Params: map[string]float64{}}},
		Seeds:       seeds,
		Run: func(rc harness.RunContext) harness.RunResult {
			m, dig := ChaosDeadlockProbeRun(uint64(rc.Seed), fid)
			return harness.RunResult{Metrics: m, Digest: dig}
		},
	})
}

// mustArm panics on an invalid plan: chaos plans are authored in this
// file against topologies built beside them, so failure is a programming
// error, not an input error.
func mustArm(in *faults.Injector, plan faults.Plan) {
	if err := in.Arm(plan); err != nil {
		panic(err)
	}
}
