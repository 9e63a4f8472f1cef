package experiments

import (
	"fmt"

	"dcqcn/internal/engine"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/stats"
	"dcqcn/internal/topology"
)

// UnfairnessResult is the Fig. 3 / Fig. 8 output: per-sender min, median
// and max of per-transfer throughput, in Gb/s.
type UnfairnessResult struct {
	Mode  Mode
	Hosts []string
	Min   []float64
	Med   []float64
	Max   []float64
}

// Unfairness runs the parking-lot experiment of Fig. 3 (PFC only) and
// Fig. 8 (DCQCN): four senders H1-H4 write 4 MB transfers to a single
// receiver R. H4 sits under the receiver's ToR (T4) and owns its ingress
// port; H1-H3 arrive via T4's two uplinks, sharing them as ECMP decides.
// With PFC alone, T4 pauses all its inputs equally, so H4 — alone on its
// port — wins; DCQCN restores per-flow fairness.
func Unfairness(mode Mode, fid Fidelity) UnfairnessResult {
	samples := make([]*stats.Sample, 4)
	for i := range samples {
		samples[i] = &stats.Sample{}
	}
	for run := 0; run < fid.Runs; run++ {
		perRun, _ := UnfairnessRun(mode, uint64(run), fid)
		for i := range samples {
			samples[i].Merge(perRun[i])
		}
	}

	res := UnfairnessResult{Mode: mode, Hosts: []string{"H1", "H2", "H3", "H4"}}
	for _, s := range samples {
		res.Min = append(res.Min, gbps(s.Min()))
		res.Med = append(res.Med, gbps(s.Median()))
		res.Max = append(res.Max, gbps(s.Max()))
	}
	return res
}

// UnfairnessRun executes one seeded run of the parking-lot experiment,
// returning per-host (H1..H4) per-transfer throughput samples in bits/s
// and the engine digest of the run — the per-run unit the sweep harness
// schedules.
func UnfairnessRun(mode Mode, run uint64, fid Fidelity) ([]*stats.Sample, engine.Digest) {
	hosts := []string{"H11", "H21", "H31", "H42"} // H1..H4 of the paper
	const receiver = "H41"
	samples := make([]*stats.Sample, len(hosts))
	for i := range samples {
		samples[i] = &stats.Sample{}
	}
	net := topologyTestbed(mode, run, fid)
	open := openFlow(net)
	warmEnd := simtime.Time(fid.Warmup)
	for i, h := range hosts {
		i := i
		flow := open(h, receiver)
		repostLoop(flow, 4*1000*1000, func(c rocev2.Completion) {
			// Gate on the completion's own timestamp, so the callback
			// needs no clock: DoneAt is when the transfer finished.
			if c.DoneAt >= warmEnd {
				samples[i].Add(float64(c.Throughput()))
			}
		})
	}
	net.Sim.Run(simtime.Time(fid.Warmup + fid.Duration))
	return samples, net.Sim.Digest()
}

// topologyTestbed builds the Fig. 2 testbed for a mode and run index;
// both the RNG seed and the ECMP hash seeds vary per run, as the paper's
// repeated runs re-roll ECMP placement.
func topologyTestbed(mode Mode, run uint64, fid Fidelity) *topology.Network {
	opts := options(mode, run*7919+1, fid)
	return topology.NewTestbed(int64(run)*104729+7, opts)
}

// Table renders the result like the paper's bar chart.
func (r UnfairnessResult) Table() string {
	t := stats.Table{Header: []string{"host", "min (Gbps)", "median (Gbps)", "max (Gbps)"}}
	for i, h := range r.Hosts {
		t.AddRow(h,
			fmt.Sprintf("%.2f", r.Min[i]),
			fmt.Sprintf("%.2f", r.Med[i]),
			fmt.Sprintf("%.2f", r.Max[i]))
	}
	return fmt.Sprintf("%v\n%s", r.Mode, t.String())
}

// H4Advantage returns median(H4)/max(median(H1..H3)) — the unfairness
// headline: >> 1 with PFC only, ~1 with DCQCN.
func (r UnfairnessResult) H4Advantage() float64 {
	others := 0.0
	for i := 0; i < 3; i++ {
		if r.Med[i] > others {
			others = r.Med[i]
		}
	}
	return r.Med[3] / others
}

// VictimFlowResult is the Fig. 4 / Fig. 9 output: the victim flow's
// median throughput (Gb/s) as senders under T3 join the incast.
type VictimFlowResult struct {
	Mode      Mode
	SendersT3 []int
	VictimMed []float64
}

// VictimFlow runs the congestion-spreading experiment of Fig. 4 (PFC
// only) and Fig. 9 (DCQCN): H11-H14 (under T1) send to R (under T4),
// while a victim flow VS (under T1) sends to VR (under T2) — a path
// sharing no congested link. Cascading PAUSEs from T4 climb to L3/L4,
// the spines, L1/L2 and finally T1, throttling the victim. Extra senders
// under T3 (sending to R) lengthen the pauses. DCQCN removes the effect.
func VictimFlow(mode Mode, sendersUnderT3 []int, fid Fidelity) VictimFlowResult {
	res := VictimFlowResult{Mode: mode, SendersT3: sendersUnderT3}
	for _, extra := range sendersUnderT3 {
		victim := &stats.Sample{}
		for run := 0; run < fid.Runs; run++ {
			perRun, _ := VictimFlowRun(mode, extra, uint64(extra*100+run), fid)
			victim.Merge(perRun)
		}
		res.VictimMed = append(res.VictimMed, gbps(victim.Median()))
	}
	return res
}

// VictimFlowRun executes one seeded run of the congestion-spreading
// experiment with the given number of extra senders under T3, returning
// the victim flow's per-transfer throughput samples (bits/s) and the
// engine digest.
func VictimFlowRun(mode Mode, extra int, run uint64, fid Fidelity) (*stats.Sample, engine.Digest) {
	victim := &stats.Sample{}
	net := topologyTestbed(mode, run, fid)
	open := openFlow(net)
	warmEnd := simtime.Time(fid.Warmup)
	// Incast: H11..H14 -> R(H41). The transfers are large (long
	// disk-rebuild reads) so uncontrolled senders keep enough
	// data standing in the fabric for PAUSE to cascade.
	for _, h := range []string{"H11", "H12", "H13", "H14"} {
		repostLoop(open(h, "H41"), 64*1000*1000, func(rocev2.Completion) {})
	}
	// Extra senders under T3 -> R.
	for i := 0; i < extra; i++ {
		h := fmt.Sprintf("H3%d", i+1)
		repostLoop(open(h, "H41"), 64*1000*1000, func(rocev2.Completion) {})
	}
	// Victim: VS(H15, under T1) -> VR(H25, under T2).
	repostLoop(open("H15", "H25"), 2*1000*1000, func(c rocev2.Completion) {
		if c.DoneAt >= warmEnd {
			victim.Add(float64(c.Throughput()))
		}
	})
	net.Sim.Run(simtime.Time(fid.Warmup + fid.Duration))
	return victim, net.Sim.Digest()
}

// Table renders the victim-flow result.
func (r VictimFlowResult) Table() string {
	t := stats.Table{Header: []string{"senders under T3", "victim median (Gbps)"}}
	for i, n := range r.SendersT3 {
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.2f", r.VictimMed[i]))
	}
	return fmt.Sprintf("%v\n%s", r.Mode, t.String())
}
