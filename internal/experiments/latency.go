package experiments

import (
	"fmt"

	"dcqcn/internal/core"
	"dcqcn/internal/dctcp"
	"dcqcn/internal/engine"
	"dcqcn/internal/fabric"
	"dcqcn/internal/harness"
	"dcqcn/internal/hostmodel"
	"dcqcn/internal/link"
	"dcqcn/internal/packet"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/stats"
	"dcqcn/internal/topology"
)

// fig19Run runs one 20:1 single-switch incast of Fig. 19 (§6.3) and
// samples the congested egress queue every 10 µs after the warmup:
// shorter queues mean lower latency for everything sharing the port.
// The senders run DCQCN with the Fig. 14 parameters (K_min = 5 KB), or
// DCTCP against cut-off marking at the 160 KB threshold DCTCP's
// burst-absorption guideline needs.
func fig19Run(useDCTCP bool, run uint64, fid Fidelity) (harness.Metrics, engine.Digest) {
	const degree = 20
	var queue *stats.Sample
	var dig engine.Digest
	if useDCTCP {
		sim, sw, hosts := dctcpStar(42+int64(run)*104729, degree+1, 500*simtime.Nanosecond)
		recvID := hosts[degree].ID
		// Closed-loop 8MB transfers per sender.
		var start func(h *dctcp.Host)
		start = func(h *dctcp.Host) {
			h.StartTransfer(recvID, 8*1000*1000, func() { start(h) })
		}
		for _, h := range hosts[:degree] {
			start(h)
		}
		queue = sampleEgressQueue(sim, sw, degree, fid)
		sim.Run(simtime.Time(fid.Warmup + fid.Duration))
		dig = sim.Digest()
	} else {
		queue, _, dig = incastQueueRun(core.DefaultParams(), degree, 3+run*7919, 41+int64(run)*104729, fid)
	}
	return harness.Metrics{
		"queue_p50_kb": queue.Median() / 1000,
		"queue_p90_kb": queue.Percentile(90) / 1000,
		"queue_p99_kb": queue.Percentile(99) / 1000,
	}, dig
}

// dctcpStar builds the DCTCP rig of fig19 and ablation-faststart on a
// fresh engine seeded with seed: one switch marking with a 160 KB
// cut-off and n DCTCP hosts H1..Hn on its ports 0..n-1, every link with
// the given propagation delay. It is built without a topology builder,
// so neither the flight recorder nor the hybrid substrate attaches.
func dctcpStar(seed int64, n int, delay simtime.Duration) (*engine.Sim, *fabric.Switch, []*dctcp.Host) {
	sim := engine.New(seed)
	swCfg := fabric.DefaultConfig()
	swCfg.Marking = core.DefaultParams().WithCutoffMarking(160 * 1000)
	sw := fabric.New(sim, 1000, "SW", n, swCfg)
	hosts := make([]*dctcp.Host, n)
	for i := range hosts {
		h := dctcp.New(sim, packet.NodeID(i+1), fmt.Sprintf("H%d", i+1), dctcp.DefaultConfig())
		link.Connect(sim, h.Port(), sw.Port(i), delay)
		sw.AddRoute(h.ID, i)
		hosts[i] = h
	}
	return sim, sw, hosts
}

// fig20Run reproduces the §7 multi-bottleneck experiment on the testbed
// for one run, under RED-like marking (red) or cut-off marking at
// 40 KB: f1: H11→H21, f2: H12→H41, f3: H31→H41. The experiment requires
// f1 and f2 to share one T1 uplink, so source ports are searched until
// T1's ECMP hash collides them. f2 then faces two bottlenecks (the
// shared T1 uplink and T4's link to H41, shared with f3), and max-min
// fairness wants ~C/2 for every flow. It returns each flow's throughput
// (Gb/s) over the measured window.
func fig20Run(red bool, run uint64, fid Fidelity) (harness.Metrics, engine.Digest) {
	params := core.DefaultParams()
	if !red {
		params = params.WithCutoffMarking(40 * 1000)
	}
	net := topology.NewTestbed(77+int64(run)*104729, dcqcnOptions(params, 2+run*7919, fid))
	open := openFlow(net)

	// f1 first; then search a source port for f2 that collides with
	// f1's uplink choice at T1.
	f1 := open("H11", "H21")
	t1 := net.Switch("T1")
	f1Port, _ := t1.RouteChoice(f1.Tuple())
	var f2 = open("H12", "H41")
	for tries := 0; tries < 64; tries++ {
		p, _ := t1.RouteChoice(f2.Tuple())
		if p == f1Port {
			break
		}
		f2 = open("H12", "H41") // next flow gets the next source port
	}
	f3 := open("H31", "H41")

	repostLoop(f1, 8*1000*1000, func(rocev2.Completion) {})
	repostLoop(f2, 8*1000*1000, func(rocev2.Completion) {})
	repostLoop(f3, 8*1000*1000, func(rocev2.Completion) {})
	var s1, s2, s3 int64
	net.Sim.At(simtime.Time(fid.Warmup), func() {
		s1, s2, s3 = f1.Stats().BytesSent, f2.Stats().BytesSent, f3.Stats().BytesSent
	})
	net.Sim.Run(simtime.Time(fid.Warmup + fid.Duration))

	d := fid.Duration
	return harness.Metrics{
		"f1_gbps": gbps(float64(simtime.RateFromBytes(f1.Stats().BytesSent-s1, d))),
		"f2_gbps": gbps(float64(simtime.RateFromBytes(f2.Stats().BytesSent-s2, d))),
		"f3_gbps": gbps(float64(simtime.RateFromBytes(f3.Stats().BytesSent-s3, d))),
	}, net.Sim.Digest()
}

// Fig1Table renders the host-stack comparison (Fig. 1a-c).
func Fig1Table() string {
	m := hostmodel.DefaultMachine()
	t := stats.Table{Header: []string{"msg size", "TCP thr", "TCP srv CPU", "RDMA thr", "RDMA cli CPU", "RDMA srv CPU"}}
	tcp, rdma := hostmodel.TCPStack(), hostmodel.RDMAWriteStack()
	for _, sz := range hostmodel.Fig1Sizes {
		pt, pr := tcp.Evaluate(m, sz), rdma.Evaluate(m, sz)
		t.AddRow(fmt.Sprintf("%dKB", sz/1000),
			pt.Throughput.String(),
			fmt.Sprintf("%.1f%%", pt.ReceiverCPU*100),
			pr.Throughput.String(),
			fmt.Sprintf("%.1f%%", pr.SenderCPU*100),
			fmt.Sprintf("%.1f%%", pr.ReceiverCPU*100))
	}
	lat := stats.Table{Header: []string{"stack", "2KB transfer latency"}}
	for _, s := range []hostmodel.Stack{hostmodel.TCPStack(), hostmodel.RDMAWriteStack(), hostmodel.RDMASendStack()} {
		lat.AddRow(s.Name, s.Latency(m, 2000).String())
	}
	return t.String() + "\n" + lat.String()
}
