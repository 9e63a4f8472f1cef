package experiments

import (
	"fmt"

	"dcqcn/internal/core"
	"dcqcn/internal/engine"
	"dcqcn/internal/fabric"
	"dcqcn/internal/harness"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/stats"
	"dcqcn/internal/topology"
)

// twoFlowConvergenceRun runs the two-sender star microbenchmark of the
// timer and CNP-priority ablations with the given DCQCN parameters and
// NIC tweaks, returning mean |r1−r2| (Gb/s), the aggregate goodput
// (Gb/s) over the measured window and the digest. Run 0 reproduces the
// historical seeds.
func twoFlowConvergenceRun(params core.Params, run uint64, fid Fidelity, tweak func(*topology.Options)) (diff, total float64, dig engine.Digest) {
	opts := dcqcnOptions(params, 9+run*7919, fid)
	if tweak != nil {
		tweak(&opts)
	}
	net := topology.NewStar(123+int64(run)*104729, 3, opts)
	open := openFlow(net)
	f1, f2 := open("H1", "H3"), open("H2", "H3")
	repostLoop(f1, 8*1000*1000, func(rocev2.Completion) {})
	net.Sim.At(simtime.Time(5*simtime.Millisecond), func() {
		repostLoop(f2, 8*1000*1000, func(rocev2.Completion) {})
	})
	var r1, r2 stats.Series
	warm := 5*simtime.Millisecond + fid.Warmup
	net.Sim.Ticker(100*simtime.Microsecond, func(now simtime.Time) {
		if now >= simtime.Time(warm) {
			r1.Add(now.Seconds(), float64(f1.CurrentRate()))
			r2.Add(now.Seconds(), float64(f2.CurrentRate()))
		}
	})
	var base int64
	net.Sim.At(simtime.Time(warm), func() { base = f1.Stats().BytesSent + f2.Stats().BytesSent })
	net.Sim.Run(simtime.Time(warm + fid.Duration))
	sent := f1.Stats().BytesSent + f2.Stats().BytesSent - base
	return gbps(stats.MeanAbsDiff(&r1, &r2)), gbps(float64(simtime.RateFromBytes(sent, fid.Duration))), net.Sim.Digest()
}

// ablationGRun executes one seeded 16:1 incast run with alpha gain g —
// the packet-level counterpart of Fig12AlphaGain. Run 0 reproduces the
// historical seeds.
func ablationGRun(g float64, run uint64, fid Fidelity) (harness.Metrics, engine.Digest) {
	p := core.DefaultParams()
	p.G = g
	queue, _, dig := incastQueueRun(p, 16, 4+run*7919, 55+int64(run)*104729, fid)
	return harness.Metrics{
		"queue_p50_kb": queue.Median() / 1000,
		"queue_p99_kb": queue.Percentile(99) / 1000,
		"queue_sd_kb":  queue.Stddev() / 1000,
	}, dig
}

// ablationRAIRun executes one seeded 32:1 incast run with the given R_AI
// (§5.2: halving R_AI trades convergence speed for less aggressive
// overshoot). Run 0 reproduces the historical seeds.
func ablationRAIRun(rai simtime.Rate, run uint64, fid Fidelity) (harness.Metrics, engine.Digest) {
	p := core.DefaultParams()
	p.RAI = rai
	queue, sw, dig := incastQueueRun(p, 32, 6+run*7919, 88+int64(run)*104729, fid)
	return harness.Metrics{
		"queue_p50_kb": queue.Median() / 1000,
		"queue_p99_kb": queue.Percentile(99) / 1000,
		"pauses":       float64(sw.PauseSentTotal()),
	}, dig
}

// incastQueueRun runs a degree:1 incast of backlogged DCQCN senders with
// the given parameters on one switch, sampling the bottleneck egress
// queue (bytes) every 10 µs after the warmup. It returns the samples,
// the switch and the digest.
func incastQueueRun(params core.Params, degree int, seedBase uint64, seed int64, fid Fidelity) (*stats.Sample, *fabric.Switch, engine.Digest) {
	opts := dcqcnOptions(params, seedBase, fid)
	net := topology.NewStar(seed, degree+1, opts)
	open := openFlow(net)
	recv := fmt.Sprintf("H%d", degree+1)
	for i := 1; i <= degree; i++ {
		repostLoop(open(fmt.Sprintf("H%d", i), recv), 8*1000*1000, func(rocev2.Completion) {})
	}
	sw := net.Switch("SW")
	queue := sampleEgressQueue(net.Sim, sw, degree, fid)
	net.Sim.Run(simtime.Time(fid.Warmup + fid.Duration))
	return queue, sw, net.Sim.Digest()
}

// fastStartRun measures the FCT of a bursty 500 KB transfer on an
// otherwise idle two-host star under DCQCN, which starts at line rate,
// or under DCTCP, which slow starts — the design rationale of
// §3.1(iii). The 10 µs host link delay models the software stack RTT
// DCTCP pays.
func fastStartRun(useDCTCP bool, run uint64, fid Fidelity) (harness.Metrics, engine.Digest) {
	const size = 500 * 1000
	end := simtime.Time(50 * simtime.Millisecond)
	var fct simtime.Duration
	var dig engine.Digest
	if useDCTCP {
		sim, _, hosts := dctcpStar(67+int64(run)*104729, 2, 10*simtime.Microsecond)
		start := sim.Now()
		hosts[0].StartTransfer(hosts[1].ID, size, func() { fct = sim.Now().Sub(start) })
		sim.Run(end)
		dig = sim.Digest()
	} else {
		opts := dcqcnOptions(core.DefaultParams(), 5+run*7919, fid)
		opts.HostLinkDelay = 10 * simtime.Microsecond
		net := topology.NewStar(66+int64(run)*104729, 2, opts)
		net.Host("H1").OpenFlow(net.Host("H2").ID).PostMessage(size, func(c rocev2.Completion) {
			fct = c.Duration()
		})
		net.Sim.Run(end)
		dig = net.Sim.Digest()
	}
	return harness.Metrics{"fct_us": fct.Microseconds()}, dig
}
