package experiments

import (
	"fmt"

	"dcqcn/internal/nic"
	"dcqcn/internal/packet"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/stats"
	"dcqcn/internal/topology"
)

// TimelyComparisonResult contrasts DCQCN (ECN-based) with the TIMELY
// baseline (delay-based) that §3.3 references: queue behaviour and
// fairness under the same incast.
type TimelyComparisonResult struct {
	Protocol   string
	QueueP50KB float64
	QueueP99KB float64
	// FairnessRatio is max/min of per-flow goodput (1 = perfect).
	FairnessRatio float64
	// Jain is Jain's fairness index (1 = perfect, 1/n = monopoly).
	Jain      float64
	TotalGbps float64
}

// TimelyComparison runs an 8:1 single-switch incast under DCQCN and
// under TIMELY and reports queue percentiles, fairness and utilization.
// Both arms are selected by registry name, so fid.CC and fid.CCParams
// move neither row; ApplyCC gives the TIMELY arm its delay-only rig.
func TimelyComparison(fid Fidelity) []TimelyComparisonResult {
	const degree = 8
	var out []TimelyComparisonResult
	for _, arm := range []struct{ proto, cc string }{{"DCQCN", "dcqcn"}, {"TIMELY", "timely"}} {
		fid.CC, fid.CCParams = arm.cc, nil
		opts := options(ModeDCQCN, 12, fid)
		net := topology.NewStar(91, degree+1, opts)
		open := openFlow(net)
		recv := fmt.Sprintf("H%d", degree+1)
		var bases []int64
		var flows []*nic.Flow
		for i := 1; i <= degree; i++ {
			f := open(fmt.Sprintf("H%d", i), recv)
			flows = append(flows, f)
			repostLoop(f, 8*1000*1000, func(rocev2.Completion) {})
		}
		sw := net.Switch("SW")
		var queue stats.Sample
		warmEnd := simtime.Time(fid.Warmup)
		net.Sim.Ticker(10*simtime.Microsecond, func(now simtime.Time) {
			if now >= warmEnd {
				queue.Add(float64(sw.EgressQueue(degree, packet.PrioData)))
			}
		})
		net.Sim.At(warmEnd, func() {
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
			if r < minR {
				minR = r
			}
			if r > maxR {
				maxR = r
			}
		}
		ratio := maxR / max(minR, 1)
		out = append(out, TimelyComparisonResult{
			Protocol:      arm.proto,
			QueueP50KB:    queue.Median() / 1000,
			QueueP99KB:    queue.Percentile(99) / 1000,
			FairnessRatio: ratio,
			Jain:          stats.JainIndex(rates),
			TotalGbps:     gbps(total),
		})
	}
	return out
}

// TimelyComparisonTable renders the comparison.
func TimelyComparisonTable(results []TimelyComparisonResult) string {
	t := stats.Table{Header: []string{"protocol", "queue p50 (KB)", "queue p99 (KB)", "max/min", "Jain index", "total (Gbps)"}}
	for _, r := range results {
		t.AddRow(r.Protocol,
			fmt.Sprintf("%.1f", r.QueueP50KB),
			fmt.Sprintf("%.1f", r.QueueP99KB),
			fmt.Sprintf("%.2f", r.FairnessRatio),
			fmt.Sprintf("%.3f", r.Jain),
			fmt.Sprintf("%.1f", r.TotalGbps))
	}
	return t.String()
}
