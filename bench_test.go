package dcqcn

// Host-cost benchmarks: raw packet-simulator and fluid-solver
// throughput, and the sweep harness's orchestration speedup, which the
// BenchmarkSweep* pair alone times (`make bench`). They measure the
// simulator, not the paper: `go run ./cmd/dcqcn-experiments` prints
// every table and figure of the evaluation, `go run ./cmd/dcqcn-sweep`
// sweeps the registered scenarios into artifacts, and cmd/dcqcn-bench
// measures per-event cost layer by layer.

import (
	"testing"

	"dcqcn/internal/experiments"
	"dcqcn/internal/fluid"
	"dcqcn/internal/harness"
	"dcqcn/internal/simtime"
)

// BenchmarkFluidSolver measures raw fluid-model integration throughput.
func BenchmarkFluidSolver(b *testing.B) {
	cfg := fluid.DefaultConfig()
	cfg.Duration = 50 * simtime.Millisecond
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fluid.Solve(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketSimulator measures raw simulator event throughput on a
// 2:1 incast (packets forwarded per wall second is the real metric; the
// reported custom metric is simulated packets per run).
func BenchmarkPacketSimulator(b *testing.B) {
	b.ReportAllocs()
	var forwarded int64
	for i := 0; i < b.N; i++ {
		sim := NewStarNetwork(int64(i), 3, DefaultOptions())
		recv := sim.Host("H3").NodeID()
		sim.Host("H1").OpenFlow(recv).PostMessage(20e6, nil)
		sim.Host("H2").OpenFlow(recv).PostMessage(20e6, nil)
		sim.RunFor(10 * Millisecond)
		forwarded = sim.Switch("SW").Forwarded
	}
	b.ReportMetric(float64(forwarded), "pkts/run")
}

// --- Sweep-harness benches (sequential vs parallel orchestration) ---

// sweepBenchGrid builds the harness benchmark grid: the §7 loss study at
// 4 seeds per point — 16 independent single-threaded simulations, enough
// work to keep a small worker pool saturated.
func sweepBenchGrid(b *testing.B) []harness.Scenario {
	b.Helper()
	fid := experiments.Fidelity{
		Duration: 10 * simtime.Millisecond,
		Warmup:   5 * simtime.Millisecond,
		Runs:     4,
	}
	reg := harness.NewRegistry()
	experiments.RegisterScenarios(reg, fid)
	scs, err := reg.Select("randomloss")
	if err != nil {
		b.Fatal(err)
	}
	return scs
}

func benchSweep(b *testing.B, parallel int) {
	scs := sweepBenchGrid(b)
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := harness.Sweep(scs, harness.Config{Parallel: parallel})
		if err != nil {
			b.Fatal(err)
		}
		events = res.TotalEvents
	}
	b.ReportMetric(float64(events), "events/sweep")
}

// BenchmarkSweepSequential times the benchmark grid at -parallel 1.
func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel4 times the same grid at -parallel 4. The ns/op
// ratio against BenchmarkSweepSequential is the orchestration speedup;
// it approaches min(4, NumCPU) on idle multi-core hardware and ~1.0x on
// a single-core machine (the runs are CPU-bound).
func BenchmarkSweepParallel4(b *testing.B) { benchSweep(b, 4) }
