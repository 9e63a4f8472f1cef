package experiments

import (
	"fmt"
	"math"

	"dcqcn/internal/core"
	"dcqcn/internal/engine"
	"dcqcn/internal/fluid"
	"dcqcn/internal/harness"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/stats"
	"dcqcn/internal/topology"
)

// fig10Run reproduces Fig. 10 for one run: two greedy senders into one
// receiver through one switch; the second sender joins at startDelay.
// The packet simulator plays the NIC firmware role; the fluid model is
// solved with both flows at line rate from the join instant (DCQCN
// flows start at line rate, so the pre-join history only matters
// through flow 1's state, which has converged by then). It returns the
// median of the second flow's rate in each, their mean relative error
// (|packet−fluid|/capacity over the overlapping window) and the packet
// run's digest. Only the packet run depends on the run index.
func fig10Run(run uint64, fid Fidelity) (harness.Metrics, engine.Digest) {
	const startDelay = 10 * simtime.Millisecond
	horizon := max(fid.Duration, 50*simtime.Millisecond)

	// --- Packet-level run ---
	net := topology.NewStar(11+int64(run)*104729, 3, dcqcnOptions(core.DefaultParams(), 1+run*7919, fid))
	open := openFlow(net)
	repostLoop(open("H1", "H3"), 8*1000*1000, func(rocev2.Completion) {})
	var packetRate, fluidRate stats.Series
	net.Sim.At(simtime.Time(startDelay), func() {
		f2 := open("H2", "H3")
		repostLoop(f2, 8*1000*1000, func(rocev2.Completion) {})
		net.Sim.Ticker(100*simtime.Microsecond, func(now simtime.Time) {
			packetRate.Add((now - simtime.Time(startDelay)).Seconds(), float64(f2.CurrentRate()))
		})
	})
	net.Sim.Run(simtime.Time(startDelay + horizon))

	// --- Fluid model ---
	fcfg := fluid.DefaultConfig()
	fcfg.InitialRates = []simtime.Rate{40 * simtime.Gbps, 40 * simtime.Gbps}
	fcfg.Duration = horizon
	fcfg.SampleEvery = 100 * simtime.Microsecond
	fres, err := fluid.Solve(fcfg)
	if err != nil {
		panic(err)
	}
	for i, t := range fres.Time {
		fluidRate.Add(t, fres.Rates[1][i])
	}

	// Mean relative error over the common window.
	n := min(len(packetRate.V), len(fluidRate.V))
	var acc, relErr float64
	for i := 0; i < n; i++ {
		acc += math.Abs(packetRate.V[i]-fluidRate.V[i]) / 40e9
	}
	if n > 0 {
		relErr = acc / float64(n)
	}
	return harness.Metrics{
		"packet_med_gbps":  gbps(packetRate.Sample().Median()),
		"fluid_med_gbps":   gbps(fluidRate.Sample().Median()),
		"mean_rel_err_pct": relErr * 100,
	}, net.Sim.Digest()
}

// SweepPoint is one cell of a Fig. 11 convergence sweep.
type SweepPoint struct {
	Label string
	// Value is the swept parameter's value (units depend on the sweep).
	Value float64
	// RateDiff is the mean |R1−R2| in Gb/s after the first 10 ms —
	// the paper's Z axis (lower is better).
	RateDiff float64
}

// solveTwoFlow runs the fluid model with 40G/5G starts and the given
// parameters, returning the convergence metric.
func solveTwoFlow(params core.Params) float64 {
	cfg := fluid.DefaultConfig()
	cfg.Params = params
	res, err := fluid.Solve(cfg)
	if err != nil {
		panic(err)
	}
	return gbps(res.RateDiff(0, 1, 0.01))
}

// Fig11Sweeps reproduces the four parameter sweeps of Fig. 11:
// (a) byte counter swept under strawman parameters,
// (b) timer swept with a 10 MB byte counter,
// (c) K_max swept under strawman parameters,
// (d) P_max swept with K_max = 200 KB.
func Fig11Sweeps() map[string][]SweepPoint {
	out := make(map[string][]SweepPoint)

	for _, bc := range []int64{150e3, 1e6, 10e6, 50e6} {
		p := core.StrawmanParams()
		p.ByteCounter = bc
		out["a:byte-counter"] = append(out["a:byte-counter"], SweepPoint{
			Label: fmt.Sprintf("B=%dKB", bc/1000), Value: float64(bc),
			RateDiff: solveTwoFlow(p),
		})
	}
	for _, timer := range []simtime.Duration{55 * simtime.Microsecond, 300 * simtime.Microsecond, 1500 * simtime.Microsecond} {
		p := core.StrawmanParams()
		p.ByteCounter = 10e6
		p.RateTimer = timer
		out["b:timer"] = append(out["b:timer"], SweepPoint{
			Label: fmt.Sprintf("T=%v", timer), Value: timer.Seconds(),
			RateDiff: solveTwoFlow(p),
		})
	}
	for _, kmax := range []int64{40e3, 100e3, 200e3, 400e3} {
		p := core.StrawmanParams()
		p.KMax = kmax
		p.PMax = 0.01
		out["c:kmax"] = append(out["c:kmax"], SweepPoint{
			Label: fmt.Sprintf("Kmax=%dKB", kmax/1000), Value: float64(kmax),
			RateDiff: solveTwoFlow(p),
		})
	}
	for _, pmax := range []float64{0.01, 0.1, 0.5, 1.0} {
		p := core.StrawmanParams()
		p.KMax = 200e3
		p.PMax = pmax
		out["d:pmax"] = append(out["d:pmax"], SweepPoint{
			Label: fmt.Sprintf("Pmax=%g", pmax), Value: pmax,
			RateDiff: solveTwoFlow(p),
		})
	}
	return out
}

// Fig12Point is one trace summary of the Fig. 12 g comparison.
type Fig12Point struct {
	G          float64
	Incast     int
	QueueMean  float64 // bytes
	QueueStdev float64
	QueuePeak  float64
}

// Fig12AlphaGain reproduces Fig. 12 with the fluid model: queue length
// statistics for g ∈ {1/16, 1/256} under 2:1 and 16:1 incast with
// line-rate starts.
func Fig12AlphaGain() []Fig12Point {
	var out []Fig12Point
	for _, g := range []float64{1.0 / 16, 1.0 / 256} {
		for _, n := range []int{2, 16} {
			cfg := fluid.DefaultConfig()
			cfg.Params.G = g
			cfg.InitialRates = make([]simtime.Rate, n)
			for i := range cfg.InitialRates {
				cfg.InitialRates[i] = 40 * simtime.Gbps
			}
			cfg.Duration = 100 * simtime.Millisecond
			res, err := fluid.Solve(cfg)
			if err != nil {
				panic(err)
			}
			mean, std := res.QueueStats(0.02)
			peak := 0.0
			for i, t := range res.Time {
				if t >= 0.02 && res.Queue[i] > peak {
					peak = res.Queue[i]
				}
			}
			out = append(out, Fig12Point{G: g, Incast: n, QueueMean: mean, QueueStdev: std, QueuePeak: peak})
		}
	}
	return out
}

// Fig12Table renders the g sweep.
func Fig12Table(points []Fig12Point) string {
	t := stats.Table{Header: []string{"g", "incast", "queue mean (KB)", "stddev (KB)", "peak (KB)"}}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("1/%d", int(1/p.G)),
			fmt.Sprintf("%d:1", p.Incast),
			fmt.Sprintf("%.1f", p.QueueMean/1000),
			fmt.Sprintf("%.1f", p.QueueStdev/1000),
			fmt.Sprintf("%.1f", p.QueuePeak/1000))
	}
	return t.String()
}
