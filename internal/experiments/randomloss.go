package experiments

import (
	"dcqcn/internal/engine"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// RandomLossPoint is one point of the §7 non-congestion loss study: the
// goodput of a single uncongested DCQCN flow as a function of the
// per-frame random loss probability of its path.
type RandomLossPoint struct {
	GoodputGbps float64
	Retransmits int64
	Timeouts    int64
}

// RandomLossRun executes one seeded run of the §7 loss study at the
// given per-frame loss probability. It quantifies the §7 discussion:
// RoCEv2's go-back-N recovery makes goodput collapse under even small
// non-congestion loss rates, because every lost frame forces
// retransmission of the entire window behind it. One sender and one
// receiver share an idle single-switch path; loss is injected on every
// link. The run index re-rolls the loss and topology RNG.
func RandomLossRun(lossRate float64, run uint64, fid Fidelity) (RandomLossPoint, engine.Digest) {
	opts := options(ModeDCQCN, 8, fid)
	// Faster RTO than the deployment default keeps the measurement
	// window informative at high loss; the relative collapse is what
	// matters. The 25 us links model a loaded multi-hop path (~100 us
	// RTT), the regime where full-window retransmission bites.
	opts.NIC.Transport.RTO = 2 * simtime.Millisecond
	opts.HostLinkDelay = 25 * simtime.Microsecond
	net := topology.NewStar(int64(run)*31+9, 2, opts)
	net.SetLossRate(lossRate)
	open := openFlow(net)
	flow := open("H1", "H2")
	repostLoop(flow, 8*1000*1000, func(rocev2.Completion) {})
	var base int64
	net.Sim.At(simtime.Time(fid.Warmup), func() { base = flow.Stats().PayloadAcked })
	net.Sim.Run(simtime.Time(fid.Warmup + fid.Duration))
	goodput := simtime.RateFromBytes(flow.Stats().PayloadAcked-base, fid.Duration)
	return RandomLossPoint{
		GoodputGbps: gbps(float64(goodput)),
		Retransmits: flow.Stats().Retransmits,
		Timeouts:    flow.Stats().Timeouts,
	}, net.Sim.Digest()
}
