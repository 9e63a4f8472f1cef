package experiments

import (
	"dcqcn/internal/engine"
	"dcqcn/internal/harness"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/stats"
	"dcqcn/internal/workload"
)

// Fixed parameters of the §6.2 benchmark traffic.
const (
	// incastChunk is the per-read rebuild transfer size.
	incastChunk = 2 * 1000 * 1000
	// incastDepth is how many rebuild reads each sender keeps in flight:
	// disk recovery issues many fetches concurrently, which is also what
	// keeps enough data standing in the fabric for PAUSE to cascade.
	incastDepth = 8
	// minUserSample excludes latency-bound small RPCs from the
	// throughput percentiles (a 2 KB transfer's "throughput" measures
	// stack latency, not congestion).
	minUserSample = 512 * 1000
)

// BenchmarkConfig parameterizes the §6.2 benchmark-traffic experiment:
// user-request traffic (communicating pairs with trace-derived sizes)
// plus one disk-rebuild incast event.
type BenchmarkConfig struct {
	Mode         Mode
	Pairs        int
	IncastDegree int
}

// DefaultBenchmarkConfig returns the paper's §6.2 setup: 20 pairs, one
// incast, 2 MB rebuild reads.
func DefaultBenchmarkConfig(mode Mode, incastDegree int) BenchmarkConfig {
	return BenchmarkConfig{Mode: mode, Pairs: 20, IncastDegree: incastDegree}
}

// BenchmarkResult holds one run's Figs. 15–17 measurements.
type BenchmarkResult struct {
	// User holds per-transfer throughput samples of the user pairs
	// (bits/s); Incast holds per-flow goodput over the measurement
	// window for each rebuild flow.
	User   stats.Sample
	Incast stats.Sample
	// SpinePauses counts XOFF frames received at S1+S2 (Fig. 15).
	SpinePauses int64
	// Drops across all switches (zero unless PFC is off).
	Drops int64
}

// metrics returns the run's user and incast percentiles, spine PAUSEs
// and drops — the metric set of benchmark-fig16 and fig17.
func (r *BenchmarkResult) metrics() harness.Metrics {
	return harness.Metrics{
		"user_p50_gbps":   gbps(r.User.Median()),
		"user_p10_gbps":   gbps(r.User.Percentile(10)),
		"incast_p50_gbps": gbps(r.Incast.Median()),
		"incast_p10_gbps": gbps(r.Incast.Percentile(10)),
		"spine_pauses":    float64(r.SpinePauses),
		"drops":           float64(r.Drops),
	}
}

// BenchmarkRun executes one seeded run of the §6.2 benchmark-traffic
// experiment — random communicating pairs running closed-loop transfers
// with the storage-trace size distribution, plus one incast of the
// given degree into a random receiver — and returns its result plus the
// engine digest. Placement and workload randomness depend only on the
// run index, so sweeps over degree or mode are paired comparisons.
func BenchmarkRun(cfg BenchmarkConfig, run uint64, fid Fidelity) (BenchmarkResult, engine.Digest) {
	var res BenchmarkResult
	dist := workload.StorageTraceDist()
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
			flow.PostMessage(incastChunk, func(c rocev2.Completion) {
				m.bytes += c.Size
				post()
			})
		}
		for d := 0; d < incastDepth; d++ {
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
				if c.DoneAt >= warmEnd && c.Size >= minUserSample {
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
