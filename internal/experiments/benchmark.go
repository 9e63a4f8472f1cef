package experiments

import (
	"fmt"

	"dcqcn/internal/engine"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/stats"
	"dcqcn/internal/workload"
)

// BenchmarkConfig parameterizes the §6.2 benchmark-traffic experiment:
// user-request traffic (communicating pairs with trace-derived sizes)
// plus one disk-rebuild incast event.
type BenchmarkConfig struct {
	Mode         Mode
	Pairs        int
	IncastDegree int
	// IncastChunk is the per-read rebuild transfer size.
	IncastChunk int64
	// IncastDepth is how many rebuild reads each sender keeps in flight:
	// disk recovery issues many fetches concurrently, which is also what
	// keeps enough data standing in the fabric for PAUSE to cascade.
	IncastDepth int
	// MinUserSample excludes latency-bound small RPCs from the
	// throughput percentiles (a 2 KB transfer's "throughput" measures
	// stack latency, not congestion).
	MinUserSample int64
}

// DefaultBenchmarkConfig returns the paper's §6.2 setup: 20 pairs, one
// incast, 2 MB rebuild reads.
func DefaultBenchmarkConfig(mode Mode, incastDegree int) BenchmarkConfig {
	return BenchmarkConfig{
		Mode:          mode,
		Pairs:         20,
		IncastDegree:  incastDegree,
		IncastChunk:   2 * 1000 * 1000,
		IncastDepth:   8,
		MinUserSample: 512 * 1000,
	}
}

// BenchmarkResult aggregates the Fig. 16/17 metrics over all runs.
type BenchmarkResult struct {
	Config BenchmarkConfig
	// User holds per-transfer throughput samples of the user pairs
	// (bits/s); Incast holds per-flow goodput over the measurement
	// window for each rebuild flow of each run.
	User   stats.Sample
	Incast stats.Sample
	// SpinePauses counts XOFF frames received at S1+S2 (Fig. 15).
	SpinePauses int64
	// Drops across all switches (zero unless PFC is off).
	Drops int64
}

// Benchmark runs the §6.2 experiment: random communicating pairs running
// closed-loop transfers with the storage-trace size distribution, plus
// one incast of the given degree into a random receiver. Pair placement,
// incast membership and ECMP seeds are re-rolled each run.
func Benchmark(cfg BenchmarkConfig, fid Fidelity) BenchmarkResult {
	res := BenchmarkResult{Config: cfg}
	for run := 0; run < fid.Runs; run++ {
		perRun, _ := BenchmarkRun(cfg, uint64(run), fid)
		res.User.Merge(&perRun.User)
		res.Incast.Merge(&perRun.Incast)
		res.SpinePauses += perRun.SpinePauses
		res.Drops += perRun.Drops
	}
	return res
}

// BenchmarkRun executes one seeded run of the §6.2 benchmark-traffic
// experiment and returns its single-run result plus the engine digest.
// Placement and workload randomness depend only on the run index, so
// sweeps over degree or mode are paired comparisons.
func BenchmarkRun(cfg BenchmarkConfig, run uint64, fid Fidelity) (BenchmarkResult, engine.Digest) {
	res := BenchmarkResult{Config: cfg}
	dist := workload.StorageTraceDist()
	depth := cfg.IncastDepth
	if depth < 1 {
		depth = 1
	}
	net := topologyTestbed(cfg.Mode, run, fid)
	open := openFlow(net)
	// Placement and workload randomness come from a dedicated engine
	// stream (determinism contract: no private rand.New sources outside
	// the engine), separate from the model's primary source so transfer
	// sizes drawn mid-run do not perturb model draws. The stream seed
	// depends only on the run index, never the mode, so mode sweeps stay
	// paired comparisons.
	rng := net.Sim.NewStream(int64(run)*6151 + 17)
	warmEnd := simtime.Time(fid.Warmup)
	hosts := net.HostNames()

	// Incast: receiver and senders drawn without replacement; each
	// sender pipelines depth rebuild reads.
	perm := rng.Perm(len(hosts))
	receiver := hosts[perm[0]]
	type meter struct{ bytes, base int64 }
	var meters []*meter
	for i := 0; i < cfg.IncastDegree; i++ {
		sender := hosts[perm[1+i%(len(hosts)-1)]]
		flow := open(sender, receiver)
		m := &meter{}
		meters = append(meters, m)
		var post func()
		post = func() {
			flow.PostMessage(cfg.IncastChunk, func(c rocev2.Completion) {
				m.bytes += c.Size
				post()
			})
		}
		for d := 0; d < depth; d++ {
			post()
		}
	}
	net.Sim.At(warmEnd, func() {
		for _, m := range meters {
			m.base = m.bytes
		}
	})

	// User traffic: closed-loop pairs. Each transfer runs on a fresh
	// flow (new QP, new UDP source port), as the paper's request
	// traffic does — over a million distinct flows in its trace —
	// so every request re-rolls ECMP and starts at line rate.
	//
	// Per-pair state only: transfer sizes come from a pair-private
	// stream and samples land in a pair-private bucket, merged in pair
	// order after the run. A pair's size draws then depend only on its
	// own completions, not on how completions of different pairs
	// interleave, so a timing change in one pair leaves every other
	// pair's workload unchanged.
	userSamples := make([]stats.Sample, cfg.Pairs)
	for i := 0; i < cfg.Pairs; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := src
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		pairRng := net.Sim.NewStream(int64(run)*6151 + int64(i+1)*16807 + 29)
		pair := &userSamples[i]
		var post func()
		post = func() {
			flow := open(src, dst)
			size := dist.Sample(pairRng)
			flow.PostMessage(size, func(c rocev2.Completion) {
				if c.DoneAt >= warmEnd && c.Size >= cfg.MinUserSample {
					pair.Add(float64(c.Throughput()))
				}
				flow.Close()
				post()
			})
		}
		post()
	}

	net.Sim.Run(simtime.Time(fid.Warmup + fid.Duration))
	for i := range userSamples {
		res.User.Merge(&userSamples[i])
	}
	for _, m := range meters {
		res.Incast.Add(float64(simtime.RateFromBytes(m.bytes-m.base, fid.Duration)))
	}
	res.SpinePauses = spinePauseCount(net)
	res.Drops = totalDrops(net)
	return res, net.Sim.Digest()
}

// Fig16Point is one x-position of Fig. 16: incast degree against user
// and incast flow percentiles for one mode.
type Fig16Point struct {
	Degree       int
	UserMedian   float64 // Gb/s
	User10th     float64
	IncastMedian float64
	Incast10th   float64
	SpinePauses  int64
}

// Fig16 sweeps the incast degree for one mode, producing the four panels
// of Fig. 16 (and, at the highest degree, the Fig. 15 PAUSE counts).
func Fig16(mode Mode, degrees []int, fid Fidelity) []Fig16Point {
	var out []Fig16Point
	for _, d := range degrees {
		r := Benchmark(DefaultBenchmarkConfig(mode, d), fid)
		out = append(out, Fig16Point{
			Degree:       d,
			UserMedian:   gbps(r.User.Median()),
			User10th:     gbps(r.User.Percentile(10)),
			IncastMedian: gbps(r.Incast.Median()),
			Incast10th:   gbps(r.Incast.Percentile(10)),
			SpinePauses:  r.SpinePauses,
		})
	}
	return out
}

// Fig16Table renders a mode's sweep.
func Fig16Table(mode Mode, points []Fig16Point) string {
	t := stats.Table{Header: []string{"incast", "user p50", "user p10", "incast p50", "incast p10", "spine pauses"}}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%d:1", p.Degree),
			fmt.Sprintf("%.2f", p.UserMedian),
			fmt.Sprintf("%.2f", p.User10th),
			fmt.Sprintf("%.2f", p.IncastMedian),
			fmt.Sprintf("%.2f", p.Incast10th),
			fmt.Sprintf("%d", p.SpinePauses))
	}
	return fmt.Sprintf("%v (throughputs in Gbps)\n%s", mode, t.String())
}

// Fig17Result compares user-traffic CDFs at different offered loads: the
// paper's "16x more traffic" claim contrasts 5 pairs without DCQCN
// against 80 pairs with it.
type Fig17Result struct {
	// NoDCQCNUser / DCQCNUser are per-transfer throughput CDFs.
	NoDCQCNUser, DCQCNUser     []stats.CDFPoint
	NoDCQCNIncast, DCQCNIncast []stats.CDFPoint
	// Medians for quick comparison (Gb/s).
	NoDCQCNUserMedian, DCQCNUserMedian float64
}

// Fig17 runs the higher-load experiment: incast degree fixed at the
// sweep maximum, pairs 5 (no DCQCN) versus 80 (DCQCN).
func Fig17(noDCQCNPairs, dcqcnPairs, incastDegree int, fid Fidelity) Fig17Result {
	base := DefaultBenchmarkConfig(ModePFCOnly, incastDegree)
	base.Pairs = noDCQCNPairs
	off := Benchmark(base, fid)

	withCC := DefaultBenchmarkConfig(ModeDCQCN, incastDegree)
	withCC.Pairs = dcqcnPairs
	on := Benchmark(withCC, fid)

	return Fig17Result{
		NoDCQCNUser:       off.User.CDF(),
		DCQCNUser:         on.User.CDF(),
		NoDCQCNIncast:     off.Incast.CDF(),
		DCQCNIncast:       on.Incast.CDF(),
		NoDCQCNUserMedian: gbps(off.User.Median()),
		DCQCNUserMedian:   gbps(on.User.Median()),
	}
}

// Fig18Result holds the four-configuration comparison at one incast
// degree: 10th-percentile throughput of user and incast flows.
type Fig18Result struct {
	Mode       Mode
	User10th   float64
	Incast10th float64
	Drops      int64
}

// Fig18 reproduces the "need for PFC and correct thresholds" experiment:
// the 8:1-incast benchmark under No DCQCN, DCQCN without PFC, DCQCN with
// misconfigured thresholds, and proper DCQCN.
func Fig18(incastDegree int, fid Fidelity) []Fig18Result {
	var out []Fig18Result
	for _, mode := range []Mode{ModePFCOnly, ModeDCQCNNoPFC, ModeDCQCNMisconfigured, ModeDCQCN} {
		r := Benchmark(DefaultBenchmarkConfig(mode, incastDegree), fid)
		out = append(out, Fig18Result{
			Mode:       mode,
			User10th:   gbps(r.User.Percentile(10)),
			Incast10th: gbps(r.Incast.Percentile(10)),
			Drops:      r.Drops,
		})
	}
	return out
}

// Fig18Table renders the four bars.
func Fig18Table(results []Fig18Result) string {
	t := stats.Table{Header: []string{"configuration", "user p10 (Gbps)", "incast p10 (Gbps)", "drops"}}
	for _, r := range results {
		t.AddRow(r.Mode.String(),
			fmt.Sprintf("%.3f", r.User10th),
			fmt.Sprintf("%.3f", r.Incast10th),
			fmt.Sprintf("%d", r.Drops))
	}
	return t.String()
}
