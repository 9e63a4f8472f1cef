package experiments

import (
	"fmt"

	"dcqcn/internal/core"
	"dcqcn/internal/dctcp"
	"dcqcn/internal/engine"
	"dcqcn/internal/fabric"
	"dcqcn/internal/hostmodel"
	"dcqcn/internal/link"
	"dcqcn/internal/packet"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/stats"
	"dcqcn/internal/topology"
)

// Fig19Result compares bottleneck queue-length distributions of DCQCN
// and DCTCP under the same 20:1 incast (§6.3): shorter queues mean lower
// latency for everything sharing the port.
type Fig19Result struct {
	DCQCNQueue stats.Sample // bytes
	DCTCPQueue stats.Sample
}

// Fig19 runs a 20:1 incast on a single switch twice: once with DCQCN
// (Fig. 14 parameters, K_min = 5 KB) and once with DCTCP (cut-off
// marking at the 160 KB threshold its burst-absorption guideline needs),
// sampling the congested egress queue every 10 µs.
func Fig19(fid Fidelity) Fig19Result {
	const degree = 20
	var res Fig19Result

	// --- DCQCN ---
	{
		opts := options(ModeDCQCN, 3, fid)
		net := topology.NewStar(41, degree+1, opts)
		open := openFlow(net)
		recv := fmt.Sprintf("H%d", degree+1)
		for i := 1; i <= degree; i++ {
			repostLoop(open(fmt.Sprintf("H%d", i), recv), 8*1000*1000, func(rocev2.Completion) {})
		}
		sw := net.Switch("SW")
		warmEnd := simtime.Time(fid.Warmup)
		net.Sim.Ticker(10*simtime.Microsecond, func(now simtime.Time) {
			if now >= warmEnd {
				res.DCQCNQueue.Add(float64(sw.EgressQueue(degree, packet.PrioData)))
			}
		})
		net.Sim.Run(simtime.Time(fid.Warmup + fid.Duration))
	}

	// --- DCTCP ---
	{
		sim := engine.New(42)
		swCfg := fabric.DefaultConfig()
		swCfg.Marking = core.DefaultParams().WithCutoffMarking(160 * 1000)
		sw := fabric.New(sim, 1000, "SW", degree+1, swCfg)
		var hosts []*dctcp.Host
		for i := 0; i <= degree; i++ {
			h := dctcp.New(sim, packet.NodeID(i+1), fmt.Sprintf("H%d", i+1), dctcp.DefaultConfig())
			link.Connect(sim, h.Port(), sw.Port(i), 500*simtime.Nanosecond)
			sw.AddRoute(h.ID, i)
			hosts = append(hosts, h)
		}
		recvID := hosts[degree].ID
		// Closed-loop 8MB transfers per sender.
		var start func(h *dctcp.Host)
		start = func(h *dctcp.Host) {
			h.StartTransfer(recvID, 8*1000*1000, func() { start(h) })
		}
		for i := 0; i < degree; i++ {
			start(hosts[i])
		}
		warmEnd := simtime.Time(fid.Warmup)
		sim.Ticker(10*simtime.Microsecond, func(now simtime.Time) {
			if now >= warmEnd {
				res.DCTCPQueue.Add(float64(sw.EgressQueue(degree, packet.PrioData)))
			}
		})
		sim.Run(simtime.Time(fid.Warmup + fid.Duration))
	}
	return res
}

// Table renders the queue percentiles of both protocols.
func (r *Fig19Result) Table() string {
	t := stats.Table{Header: []string{"protocol", "queue p50 (KB)", "p90 (KB)", "p99 (KB)"}}
	for _, row := range []struct {
		name string
		s    *stats.Sample
	}{{"DCQCN", &r.DCQCNQueue}, {"DCTCP", &r.DCTCPQueue}} {
		t.AddRow(row.name,
			fmt.Sprintf("%.1f", row.s.Median()/1000),
			fmt.Sprintf("%.1f", row.s.Percentile(90)/1000),
			fmt.Sprintf("%.1f", row.s.Percentile(99)/1000))
	}
	return t.String()
}

// Fig20Result is the multi-bottleneck (parking lot) comparison of §7:
// per-flow throughput under cut-off versus RED-like marking. Flow f2
// crosses two bottlenecks; max-min fairness wants ~C/2 for every flow.
type Fig20Result struct {
	Marking    string
	F1, F2, F3 float64 // Gb/s
}

// Fig20 reproduces the §7 experiment on the testbed: f1: H11→H21,
// f2: H12→H41, f3: H31→H41. The experiment requires f1 and f2 to share
// one T1 uplink, so source ports are searched until T1's ECMP hash
// collides them. f2 then faces two bottlenecks (the shared T1 uplink and
// T4's link to H41, shared with f3).
func Fig20(fid Fidelity) []Fig20Result {
	var out []Fig20Result
	for _, red := range []bool{false, true} {
		params := core.DefaultParams()
		label := "RED-like (5KB/200KB/1%)"
		if !red {
			params = params.WithCutoffMarking(40 * 1000)
			label = "cut-off (DCTCP-like, 40KB)"
		}
		net := topology.NewTestbed(77, dcqcnOptions(params, 2, fid))
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
		out = append(out, Fig20Result{
			Marking: label,
			F1:      gbps(float64(simtime.RateFromBytes(f1.Stats().BytesSent-s1, d))),
			F2:      gbps(float64(simtime.RateFromBytes(f2.Stats().BytesSent-s2, d))),
			F3:      gbps(float64(simtime.RateFromBytes(f3.Stats().BytesSent-s3, d))),
		})
	}
	return out
}

// Fig20Table renders the marking comparison.
func Fig20Table(results []Fig20Result) string {
	t := stats.Table{Header: []string{"marking", "f1 (Gbps)", "f2 two-bottleneck (Gbps)", "f3 (Gbps)"}}
	for _, r := range results {
		t.AddRow(r.Marking,
			fmt.Sprintf("%.2f", r.F1),
			fmt.Sprintf("%.2f", r.F2),
			fmt.Sprintf("%.2f", r.F3))
	}
	return t.String()
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
