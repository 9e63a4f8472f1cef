package experiments

import (
	"fmt"
	"math"

	"dcqcn/internal/engine"
	"dcqcn/internal/harness"
	"dcqcn/internal/hybrid"
	"dcqcn/internal/nic"
	"dcqcn/internal/packet"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/stats"
	"dcqcn/internal/topology"
)

// This file is the experiment-suite face of the hybrid fluid/packet
// co-simulation (internal/hybrid): the validation run that bounds the
// fluid approximation against a pure-packet ground truth, and the
// hybrid-* harness scenarios that put 10k/100k/1M background flows
// under the paper's incast and victim-flow workloads.

// HybridValidationBoundPct is the documented error bound of the hybrid
// approximation on the mid-size validation rig: foreground throughput
// and mean bottleneck queue occupancy of a hybrid run stay within this
// percentage of the pure-packet run that models every background flow
// individually, once both systems are past their transient (~20 ms).
//
// The bound is honest, not tight: measured queue error is ~15-25% and
// throughput error ~30-35%, with a systematic direction — fluid
// classes hold a steady equilibrium queue, so packet foreground flows
// see continuous marking and cut once per CNP interval, while real
// background traffic marks in bursts the CNP rate-limit partially
// forgives. The fluid side therefore over-claims a little and the
// foreground lands below its packet-level share. EXPERIMENTS.md
// records the measured values.
const HybridValidationBoundPct = 40.0

// HybridValidationResult compares one hybrid run against its
// pure-packet ground truth on the mid-size incast rig: K foreground
// senders and B background senders into one receiver port. The packet
// leg runs all K+B as real RoCEv2 flows; the hybrid leg keeps the K
// foreground flows packet-level and models the B background senders as
// fluid classes on the same topology, same seed.
type HybridValidationResult struct {
	// Foreground aggregate throughput over the measurement window.
	PacketFgGbps, HybridFgGbps float64
	// Mean bottleneck egress queue over the window; the hybrid value
	// counts packet + fluid bytes, as the marking law does.
	PacketQueueKB, HybridQueueKB float64
	// Relative errors, percent.
	FgErrPct, QueueErrPct float64
}

// hybridValidationLeg runs one leg of the comparison. bgFluid selects
// whether the B background senders are fluid classes (hybrid leg) or
// real packet flows (ground-truth leg).
func hybridValidationLeg(k, bg int, run uint64, fid Fidelity, bgFluid bool) (fgGbps, queueKB float64, dig engine.Digest) {
	fid.Hybrid = false // this run wires its own substrate
	opts := options(ModeDCQCN, uint64(k*100+bg)+run*7919, fid)
	recv := fmt.Sprintf("H%d", k+bg+1)
	var sub *hybrid.Substrate
	if bgFluid {
		hcfg := hybrid.DefaultConfig()
		hcfg.Params = opts.Switch.Marking
		opts.Background = func(net *topology.Network) {
			specs := make([]hybrid.ClassSpec, bg)
			for i := range specs {
				specs[i] = hybrid.ClassSpec{
					Src: fmt.Sprintf("H%d", k+1+i), Dst: recv, Flows: 1,
				}
			}
			sub = hybrid.Attach(net, hcfg, specs)
		}
	}
	net := topology.NewStar(int64(k)*1313+int64(bg)*17+3+int64(run)*104729, k+bg+1, opts)
	open := openFlow(net)

	var fg []*nic.Flow
	for i := 1; i <= k; i++ {
		f := open(fmt.Sprintf("H%d", i), recv)
		repostLoop(f, 8*1000*1000, func(rocev2.Completion) {})
		fg = append(fg, f)
	}
	if !bgFluid {
		for i := k + 1; i <= k+bg; i++ {
			repostLoop(open(fmt.Sprintf("H%d", i), recv), 8*1000*1000, func(rocev2.Completion) {})
		}
	}

	sw := net.Switch("SW")
	recvPort := k + bg // hosts attach in order; the receiver is last
	var queue stats.Sample
	var before int64
	warmEnd := simtime.Time(fid.Warmup)
	net.Sim.Ticker(10*simtime.Microsecond, func(now simtime.Time) {
		if now < warmEnd {
			return
		}
		q := sw.EgressQueue(recvPort, packet.PrioData)
		if sub != nil {
			q += sub.FluidQueueBytes("SW", recvPort)
		}
		queue.Add(float64(q))
	})
	net.Sim.At(warmEnd, func() {
		for _, f := range fg {
			before += f.Stats().BytesSent
		}
	})
	net.Sim.Run(simtime.Time(fid.Warmup + fid.Duration))
	var after int64
	for _, f := range fg {
		after += f.Stats().BytesSent
	}
	fgGbps = gbps(float64(simtime.RateFromBytes(after-before, fid.Duration)))
	return fgGbps, queue.Mean() / 1000, net.Sim.Digest()
}

// HybridValidationRun executes both legs and reports the errors.
func HybridValidationRun(k, bg int, run uint64, fid Fidelity) (HybridValidationResult, engine.Digest) {
	pktFg, pktQ, pktDig := hybridValidationLeg(k, bg, run, fid, false)
	hybFg, hybQ, hybDig := hybridValidationLeg(k, bg, run, fid, true)
	res := HybridValidationResult{
		PacketFgGbps: pktFg, HybridFgGbps: hybFg,
		PacketQueueKB: pktQ, HybridQueueKB: hybQ,
		FgErrPct:    relErrPct(hybFg, pktFg),
		QueueErrPct: relErrPct(hybQ, pktQ),
	}
	return res, harness.CombineDigests(pktDig, hybDig)
}

// relErrPct returns |got−want|/want in percent (0 when want is not a
// positive reference — both compared quantities are nonnegative).
func relErrPct(got, want float64) float64 {
	if want <= 0 {
		return 0
	}
	return 100 * math.Abs(got-want) / want
}

// hybridFid returns fid with the substrate armed at the given flow
// count — the per-point fidelity of the hybrid-* scenarios.
func hybridFid(fid Fidelity, bgFlows int) Fidelity {
	fid.Hybrid = true
	fid.BgFlows = bgFlows
	return fid
}

// hybridScales are the background populations the hybrid-* scenarios
// sweep — the scales a packet-level simulation cannot reach.
var hybridScales = []int{10_000, 100_000, 1_000_000}

// RegisterHybridScenarios registers the hybrid co-simulation scenarios.
// They are kept out of RegisterScenarios so the 16-scenario golden
// digest table stays pinned; the CLIs register both.
func RegisterHybridScenarios(reg *harness.Registry, fid Fidelity) {
	seeds := harness.Runs(fid.Runs)

	// Mid-size incast with a live million-flow substrate underneath.
	{
		var points []harness.Point
		for _, n := range hybridScales {
			points = append(points, harness.Point{
				Label: fmt.Sprintf("bg=%d", n), Params: map[string]float64{"bg_flows": float64(n)},
			})
		}
		reg.Register(harness.Scenario{
			Name:        "hybrid-incast",
			Description: "Hybrid: 8:1 incast over 10k/100k/1M fluid background flows",
			Points:      points,
			Seeds:       seeds,
			Run: func(rc harness.RunContext) harness.RunResult {
				bg := int(rc.Point.Params["bg_flows"])
				p, dig := IncastRun(8, uint64(rc.Seed), hybridFid(fid, bg))
				return harness.RunResult{
					Metrics: harness.Metrics{
						"total_gbps":   p.TotalGbps,
						"queue_p99_kb": p.QueueP99KB,
						"drops":        float64(p.Drops),
					},
					Digest: dig,
				}
			},
		})
	}

	// Victim flow on the Fig. 2 testbed under massive background load.
	// The grid starts two decades below hybridScales so the sweep shows
	// the starvation onset: at a few hundred flows the victim still
	// completes chunks, by 10k the substrate's marking pressure pins it
	// at MinRate and completions go to zero.
	{
		var points []harness.Point
		for _, n := range append([]int{100, 1000}, hybridScales...) {
			points = append(points, harness.Point{
				Label: fmt.Sprintf("bg=%d", n), Params: map[string]float64{"bg_flows": float64(n)},
			})
		}
		reg.Register(harness.Scenario{
			Name:        "hybrid-victim",
			Description: "Hybrid: victim flow on the testbed over 100..1M fluid background flows",
			Points:      points,
			Seeds:       seeds,
			Run: func(rc harness.RunContext) harness.RunResult {
				bg := int(rc.Point.Params["bg_flows"])
				victim, dig := VictimFlowRun(ModeDCQCN, 0, uint64(rc.Seed), hybridFid(fid, bg))
				// Under heavy substrate load the victim can be
				// throttled so hard that no chunk completes inside
				// the window; an empty sample means starved, and the
				// honest median is 0, not a dropped NaN metric.
				med := 0.0
				if victim.N() > 0 {
					med = gbps(victim.Median())
				}
				return harness.RunResult{
					Metrics: harness.Metrics{
						"victim_med_gbps":    med,
						"victim_completions": float64(victim.N()),
					},
					Digest: dig,
				}
			},
		})
	}

	// The validation comparison itself, as a sweepable scenario.
	{
		var points []harness.Point
		for _, bg := range []int{8, 16} {
			points = append(points, harness.Point{
				Label: fmt.Sprintf("4:%d", bg), Params: map[string]float64{"bg_flows": float64(bg)},
			})
		}
		reg.Register(harness.Scenario{
			Name:        "hybrid-validate",
			Description: "Hybrid vs pure-packet: foreground throughput and queue error on the mid-size rig",
			Points:      points,
			Seeds:       seeds,
			Run: func(rc harness.RunContext) harness.RunResult {
				r, dig := HybridValidationRun(4, int(rc.Point.Params["bg_flows"]), uint64(rc.Seed), fid)
				return harness.RunResult{
					Metrics: harness.Metrics{
						"fg_packet_gbps":  r.PacketFgGbps,
						"fg_hybrid_gbps":  r.HybridFgGbps,
						"fg_err_pct":      r.FgErrPct,
						"queue_packet_kb": r.PacketQueueKB,
						"queue_hybrid_kb": r.HybridQueueKB,
						"queue_err_pct":   r.QueueErrPct,
					},
					Digest: dig,
				}
			},
		})
	}
}
