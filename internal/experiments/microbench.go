package experiments

import (
	"fmt"

	"dcqcn/internal/core"
	"dcqcn/internal/engine"
	"dcqcn/internal/nic"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/stats"
	"dcqcn/internal/topology"
)

// Fig13Config names the four parameter validations of Fig. 13.
type Fig13Config int

// Fig. 13 configurations.
const (
	// Fig13Strawman: QCN/DCTCP-recommended parameters (cut-off marking
	// at 40 KB, 1.5 ms timer, 150 KB byte counter).
	Fig13Strawman Fig13Config = iota
	// Fig13FastTimer: cut-off marking, but the 55 µs timer dominates.
	Fig13FastTimer
	// Fig13REDOnly: RED-like marking (5KB/200KB/1%) with the slow timer.
	Fig13REDOnly
	// Fig13Combined: RED marking plus the fast timer — the deployed set.
	Fig13Combined
)

// String names the configuration as §6.1 does.
func (c Fig13Config) String() string {
	switch c {
	case Fig13Strawman:
		return "strawman parameters"
	case Fig13FastTimer:
		return "timer dominates rate increase"
	case Fig13REDOnly:
		return "RED-ECN enabled"
	default:
		return "RED-ECN plus timer"
	}
}

func (c Fig13Config) params() core.Params {
	switch c {
	case Fig13Strawman:
		return core.StrawmanParams()
	case Fig13FastTimer:
		p := core.StrawmanParams()
		p.RateTimer = 55 * simtime.Microsecond
		p.ByteCounter = 10e6
		return p
	case Fig13REDOnly:
		p := core.StrawmanParams()
		p.KMin = 5e3
		p.KMax = 200e3
		p.PMax = 0.01
		return p
	default:
		return core.DefaultParams()
	}
}

// Fig13Result summarizes one two-sender microbenchmark run.
type Fig13Result struct {
	// MeanDiff is the mean |r1−r2| in Gb/s over the measured window.
	MeanDiff float64
	// SumStdev is the stddev of r1+r2 in Gb/s — the throughput
	// instability that RED-only marking exhibits (Fig. 13c).
	SumStdev float64
}

// Fig13Run executes one seeded run of the testbed microbenchmark of
// §6.1: two senders and one receiver on a single switch; the second
// sender starts 5 ms after the first; rates are sampled for the
// remainder of the run. Run 0 reproduces the historical seeds; other
// run indices re-roll the topology RNG and ECMP placement, giving
// sweeps statistical weight.
//
// A deterministic simulator needs one extra ingredient the noisy testbed
// provides for free: rate asymmetry at the moment the second flow joins
// (both DCQCN flows otherwise start at exactly line rate and evolve in
// lockstep, converging trivially under any parameters). A helper flow
// shares the bottleneck with flow 1 until flow 2 joins, leaving flow 1
// at roughly half rate — the asymmetric initial condition the paper's
// fluid analysis (40G vs 5G) studies.
func Fig13Run(cfg Fig13Config, run uint64, fid Fidelity) (Fig13Result, engine.Digest) {
	opts := dcqcnOptions(cfg.params(), 1+run*7919, fid)
	net := topology.NewStar(int64(cfg)*31+5+int64(run)*104729, 4, opts)
	open := openFlow(net)

	// Paced-rate time series of the two flows (bits/s vs seconds).
	var flow1, flow2 stats.Series
	f1 := open("H1", "H4")
	repostLoop(f1, 8*1000*1000, func(rocev2.Completion) {})
	helper := open("H3", "H4")
	helperDone := false
	var helperPost func()
	helperPost = func() {
		helper.PostMessage(8*1000*1000, func(rocev2.Completion) {
			if !helperDone {
				helperPost()
			}
		})
	}
	helperPost()
	net.Sim.At(simtime.Time(5*simtime.Millisecond), func() {
		helperDone = true
		f2 := open("H2", "H4")
		repostLoop(f2, 8*1000*1000, func(rocev2.Completion) {})
		net.Sim.Ticker(100*simtime.Microsecond, func(now simtime.Time) {
			flow1.Add(now.Seconds(), float64(f1.CurrentRate()))
			flow2.Add(now.Seconds(), float64(f2.CurrentRate()))
		})
	})
	net.Sim.Run(simtime.Time(5*simtime.Millisecond + fid.Warmup + fid.Duration))

	// Metrics over the post-warmup window.
	after := (5*simtime.Millisecond + fid.Warmup).Seconds()
	a, b := flow1.After(after), flow2.After(after)
	var sum stats.Sample
	n := min(len(a.V), len(b.V))
	for i := 0; i < n; i++ {
		sum.Add(a.V[i] + b.V[i])
	}
	return Fig13Result{
		MeanDiff: gbps(stats.MeanAbsDiff(&a, &b)),
		SumStdev: gbps(sum.Stddev()),
	}, net.Sim.Digest()
}

// IncastSummaryPoint is one row of the §6.1 K:1 incast check: with the
// deployed parameters, total throughput stays above 39 Gb/s and the
// bottleneck queue under ~100 KB for K = 2..20.
type IncastSummaryPoint struct {
	TotalGbps  float64
	QueueP99KB float64
	Drops      int64
}

// IncastRun executes one seeded run of the §6.1 closing
// microbenchmark: a K:1 incast on a single switch. Run 0 reproduces the
// historical seeds; other run indices re-roll the topology RNG and ECMP
// placement.
func IncastRun(k int, run uint64, fid Fidelity) (IncastSummaryPoint, engine.Digest) {
	opts := options(ModeDCQCN, uint64(k)+run*7919, fid)
	net := topology.NewStar(int64(k)*13+3+int64(run)*104729, k+1, opts)
	open := openFlow(net)
	recv := fmt.Sprintf("H%d", k+1)
	var flows []*nic.Flow
	for i := 1; i <= k; i++ {
		f := open(fmt.Sprintf("H%d", i), recv)
		repostLoop(f, 8*1000*1000, func(rocev2.Completion) {})
		flows = append(flows, f)
	}
	// Sample the bottleneck egress queue (switch port toward recv; hosts
	// attach in order, so H{k+1} is port k).
	queue := sampleEgressQueue(net.Sim, net.Switch("SW"), k, fid)
	var before int64
	net.Sim.At(simtime.Time(fid.Warmup), func() {
		for _, f := range flows {
			before += f.Stats().BytesSent
		}
	})
	net.Sim.Run(simtime.Time(fid.Warmup + fid.Duration))
	var after int64
	for _, f := range flows {
		after += f.Stats().BytesSent
	}
	total := simtime.RateFromBytes(after-before, fid.Duration)
	return IncastSummaryPoint{
		TotalGbps:  gbps(float64(total)),
		QueueP99KB: queue.Percentile(99) / 1000,
		Drops:      totalDrops(net),
	}, net.Sim.Digest()
}
