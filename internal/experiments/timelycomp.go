package experiments

import (
	"fmt"

	"dcqcn/internal/engine"
	"dcqcn/internal/harness"
	"dcqcn/internal/nic"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/stats"
	"dcqcn/internal/topology"
)

// timelyComparisonRun runs one 8:1 single-switch incast under the named
// algorithm ("dcqcn" or "timely") — the contrast between ECN-based
// DCQCN and the delay-based TIMELY baseline that §3.3 references. It
// returns the bottleneck queue percentiles, per-flow fairness (max/min
// goodput, 1 = perfect; Jain's index, 1 = perfect, 1/n = monopoly) and
// the total goodput. The algorithm is selected by registry name, so
// fid.CC and fid.CCParams do not reach the run; ApplyCC gives TIMELY
// its delay-only rig.
func timelyComparisonRun(algo string, run uint64, fid Fidelity) (harness.Metrics, engine.Digest) {
	const degree = 8
	fid.CC, fid.CCParams = algo, nil
	net := topology.NewStar(91+int64(run)*104729, degree+1, options(ModeDCQCN, 12+run*7919, fid))
	open := openFlow(net)
	recv := fmt.Sprintf("H%d", degree+1)
	var bases []int64
	var flows []*nic.Flow
	for i := 1; i <= degree; i++ {
		f := open(fmt.Sprintf("H%d", i), recv)
		flows = append(flows, f)
		repostLoop(f, 8*1000*1000, func(rocev2.Completion) {})
	}
	queue := sampleEgressQueue(net.Sim, net.Switch("SW"), degree, fid)
	net.Sim.At(simtime.Time(fid.Warmup), func() {
		for _, f := range flows {
			bases = append(bases, f.Stats().BytesSent)
		}
	})
	net.Sim.Run(simtime.Time(fid.Warmup + fid.Duration))

	minR, maxR, total := 1e18, 0.0, 0.0
	var rates []float64
	for i, f := range flows {
		r := float64(simtime.RateFromBytes(f.Stats().BytesSent-bases[i], fid.Duration))
		rates = append(rates, r)
		total += r
		minR, maxR = min(minR, r), max(maxR, r)
	}
	return harness.Metrics{
		"queue_p50_kb": queue.Median() / 1000,
		"queue_p99_kb": queue.Percentile(99) / 1000,
		"max_min":      maxR / max(minR, 1),
		"jain":         stats.JainIndex(rates),
		"total_gbps":   gbps(total),
	}, net.Sim.Digest()
}
