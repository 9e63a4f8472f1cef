// Package experiments reproduces every table and figure of the DCQCN
// paper's evaluation on the simulated testbed. Every seeded
// packet-level experiment is a registered harness scenario
// (RegisterScenarios, RegisterChaosScenarios, RegisterHybridScenarios):
// one per-run function, swept by cmd/dcqcn-sweep and printed by
// cmd/dcqcn-experiments. Only the fluid-model, host-model and
// analytical experiments and the class-isolation extension have no
// scenario; cmd/dcqcn-experiments calls them directly.
//
// The per-experiment index lives in DESIGN.md; paper-vs-measured values
// are recorded in EXPERIMENTS.md.
package experiments

import (
	"encoding/json"
	"fmt"

	"dcqcn/internal/cc"
	"dcqcn/internal/core"
	"dcqcn/internal/engine"
	"dcqcn/internal/fabric"
	"dcqcn/internal/hybrid"
	"dcqcn/internal/nic"
	"dcqcn/internal/packet"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/stats"
	"dcqcn/internal/topology"
)

// Mode selects the end-to-end configuration under test — the four bars
// of Fig. 18 and the two of most other figures.
type Mode int

// Modes.
const (
	// ModePFCOnly is the paper's "No DCQCN" baseline: uncontrolled
	// line-rate RoCEv2 over PFC, no ECN marking, no CNPs.
	ModePFCOnly Mode = iota
	// ModeDCQCN is the deployed configuration: Fig. 14 parameters,
	// dynamic PFC thresholds per §4.
	ModeDCQCN
	// ModeDCQCNNoPFC disables PFC entirely (Fig. 18): packet loss returns.
	ModeDCQCNNoPFC
	// ModeDCQCNMisconfigured keeps PFC but uses the static t_PFC upper
	// bound with a 120 KB ECN threshold, so PFC can fire before ECN
	// (Fig. 18).
	ModeDCQCNMisconfigured
)

// String names the mode as the paper's legends do.
func (m Mode) String() string {
	switch m {
	case ModePFCOnly:
		return "No DCQCN"
	case ModeDCQCN:
		return "DCQCN"
	case ModeDCQCNNoPFC:
		return "DCQCN without PFC"
	case ModeDCQCNMisconfigured:
		return "DCQCN (Misconfigured)"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Fidelity scales experiment cost: Quick keeps unit tests and benches
// fast; Full approaches the paper's statistical weight.
type Fidelity struct {
	// Duration of each measured run.
	Duration simtime.Duration
	// Warmup excluded from measurement (DCQCN's alpha-decay transient).
	Warmup simtime.Duration
	// Runs is the number of random repetitions (seeds) per data point.
	Runs int
	// CC selects the congestion-control algorithm by registry name for
	// the DCQCN modes of every scenario. The PFC-only baseline keeps its
	// fixed-rate sender; the runs built by dcqcnOptions (fig10,
	// convergence-fig13, fig19's dcqcn point, fig20 and every ablation)
	// keep DCQCN; timely-comparison names the algorithm of each point;
	// the DCTCP rigs run no registry algorithm. Empty means "dcqcn" —
	// the deployed algorithm, routed through the internal/cc framework
	// either way.
	CC string
	// CCParams, if non-nil, is a JSON object overlaid onto the selected
	// algorithm's default parameters (the -cc-params flag; see
	// cc.Selection.ApplyParamsJSON).
	CCParams json.RawMessage
	// Hybrid arms the fluid/packet co-simulation substrate
	// (internal/hybrid) on every network a scenario builds: BgFlows
	// long-lived background flows are modeled as fluid DCQCN classes
	// coupled into the fabric's buffers and marking. The CLIs set it
	// exactly when BgFlows > 0. With BgFlows = 0 the armer still runs
	// but attaches nothing — digests stay bit-identical to an unarmed
	// run (the hybrid-off passivity gate).
	Hybrid bool
	// BgFlows is the background flow count the hybrid substrate models.
	BgFlows int
}

// Quick returns the fidelity used by tests and benchmarks.
func Quick() Fidelity {
	return Fidelity{Duration: 30 * simtime.Millisecond, Warmup: 10 * simtime.Millisecond, Runs: 2}
}

// Full returns the fidelity used for EXPERIMENTS.md numbers.
func Full() Fidelity {
	return Fidelity{Duration: 100 * simtime.Millisecond, Warmup: 30 * simtime.Millisecond, Runs: 5}
}

// options builds topology options for a mode. ECMP seed base is set per
// run by the caller; fid selects the congestion-control algorithm for
// the DCQCN modes.
func options(mode Mode, seedBase uint64, fid Fidelity) topology.Options {
	opts := topology.DefaultOptions()
	opts.ECMPSeedBase = seedBase
	// Real RoCEv2 NICs have no congestion window: an uncontrolled sender
	// keeps the wire full until PFC back-pressures its own port. The
	// congestion-spreading experiments need that behaviour, so the
	// transport window is raised far beyond any path's buffering.
	opts.NIC.Transport.WindowPackets = 16384
	// RoCE NICs of the ConnectX-3 era recover from loss only via long
	// transport retransmission timeouts; 16 ms is a conservative stand-in
	// (real firmware timeouts ran into hundreds of ms). With PFC the
	// timer never fires; without it, this is why the paper's Fig. 18
	// shows flows that effectively never recover.
	opts.NIC.Transport.RTO = 16 * simtime.Millisecond
	if mode == ModePFCOnly {
		// Fixed-rate senders consume no signal: ApplyCC switches CNP
		// generation and ECN marking off.
		topology.ApplyCC(&opts, cc.Fixed(40*simtime.Gbps), true)
		armHybrid(&opts, fid)
		return opts
	}
	// The DCQCN modes route through the cc registry — the default
	// algorithm included, so the golden digests exercise the framework —
	// and fid.CC swaps the algorithm under the same scenario.
	sel, err := cc.Select(ccName(fid), 40*simtime.Gbps)
	if err != nil {
		panic(err) // CLI flags are resolved against the registry up front
	}
	if fid.CCParams != nil {
		if err := sel.ApplyParamsJSON(fid.CCParams); err != nil {
			panic(err) // ditto: the CLI validates the overlay before running
		}
	}
	params := core.DefaultParams()
	if rp, ok := sel.Params.(*core.Params); ok {
		// Keep the receiver NP and switch marking consistent with the
		// algorithm's own RP parameters.
		params = *rp
	}
	opts.NIC.NP = params
	switch mode {
	case ModeDCQCN:
		opts.Switch.Marking = params
	case ModeDCQCNNoPFC:
		opts.Switch.Marking = params
		opts.Switch.PFCEnabled = false
	case ModeDCQCNMisconfigured:
		// Static threshold at the §4 upper bound, ECN at 120 KB (~5x):
		// ECN-before-PFC is no longer guaranteed.
		opts.Switch.StaticPFCThreshold = 24475
		m := params
		m.KMin = 120 * 1000
		m.KMax = 200 * 1000
		opts.Switch.Marking = m
	}
	// Last, so capability-driven adjustments (NP off, denser ACKs,
	// marking off for delay/hint algorithms in the well-configured mode)
	// take precedence over the per-mode marking defaults above.
	topology.ApplyCC(&opts, sel, mode == ModeDCQCN)
	armHybrid(&opts, fid)
	return opts
}

// dcqcnOptions builds the DCQCN rig for the runs that compare DCQCN
// itself against something else — the fluid model (Fig. 10), other
// DCQCN parameters (Fig. 13 and the g, R_AI, timer and CNP-priority
// ablations), DCTCP (Fig. 19), a marking change (Fig. 20) or slow
// start (the fast-start ablation): DCQCN senders with params, switches
// marking with params. These runs always use DCQCN, so fid.CC and
// fid.CCParams are cleared first — another algorithm's capabilities
// would otherwise switch off CNP generation under senders that need it.
func dcqcnOptions(params core.Params, seedBase uint64, fid Fidelity) topology.Options {
	fid.CC, fid.CCParams = "", nil
	opts := options(ModeDCQCN, seedBase, fid)
	topology.ApplyCC(&opts, cc.DCQCN(params), true)
	opts.Switch.Marking = params
	return opts
}

// armHybrid installs the hybrid background-traffic armer when the
// fidelity asks for it. The fluid classes run against the same marking
// profile the mode configured on the switches, so fluid and packet
// traffic answer to one law.
func armHybrid(opts *topology.Options, fid Fidelity) {
	if !fid.Hybrid {
		return
	}
	hcfg := hybrid.DefaultConfig()
	hcfg.Params = opts.Switch.Marking
	opts.Background = hybrid.Armer(hcfg, fid.BgFlows)
}

// ccName resolves the fidelity's algorithm name, defaulting to DCQCN.
func ccName(fid Fidelity) string {
	if fid.CC == "" {
		return "dcqcn"
	}
	return fid.CC
}

// openFlow is the workload adapter for a built network.
func openFlow(net *topology.Network) func(src, dst string) *nic.Flow {
	return func(src, dst string) *nic.Flow {
		return net.Host(src).OpenFlow(net.Host(dst).ID)
	}
}

// gbps converts a bits/second float to Gb/s for reporting.
func gbps(v float64) float64 { return v / 1e9 }

// repostLoop keeps a flow backlogged with fixed-size chunks, recording
// per-transfer throughput into the sample via the given callback.
func repostLoop(flow *nic.Flow, size int64, record func(rocev2.Completion)) {
	var post func()
	post = func() {
		flow.PostMessage(size, func(c rocev2.Completion) {
			record(c)
			post()
		})
	}
	post()
}

// sampleEgressQueue samples the data-class egress queue (bytes) of sw's
// port every 10 µs once the warmup has passed.
func sampleEgressQueue(sim *engine.Sim, sw *fabric.Switch, port int, fid Fidelity) *stats.Sample {
	queue := &stats.Sample{}
	warmEnd := simtime.Time(fid.Warmup)
	sim.Ticker(10*simtime.Microsecond, func(now simtime.Time) {
		if now >= warmEnd {
			queue.Add(float64(sw.EgressQueue(port, packet.PrioData)))
		}
	})
	return queue
}

// totalDrops sums drops across all switches of a network.
func totalDrops(net *topology.Network) int64 {
	var n int64
	for _, sw := range net.Switches {
		n += sw.Stats.Drops
	}
	return n
}

// spinePauseCount sums XOFF frames received at the spine switches — the
// Fig. 15 metric.
func spinePauseCount(net *topology.Network) int64 {
	return net.Switch("S1").PauseReceived() + net.Switch("S2").PauseReceived()
}
