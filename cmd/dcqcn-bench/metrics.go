package main

import (
	"fmt"
	"slices"
)

// metricSpec declares one reported metric. BENCHMARK.json at the
// repository root lists the same metrics; the smoke test keeps the two
// equal.
type metricSpec struct {
	name, unit, better string
	// bound is the share of the parent's value by which an end-to-end
	// metric may worsen before a change counts as a regression, when
	// the two sides ran on different seeds (BENCHMARK.json).
	bound float64
	// compareBound is the same share for -compare, which judges two
	// reports of one seed: equal exact counts pin the simulation, so
	// only host noise separates the sides.
	compareBound float64
	// q is the quantile of the reps an end-to-end metric reports: 0 for
	// the fastest rep, 0.5 for the median.
	q float64
	// sim marks a count of simulated behaviour: exact, and identical
	// between any two runs of one commit and seed. Everything else is
	// host cost, subject to machine noise.
	sim bool
}

// endToEnd are the metrics a user of the simulator sees, in host time
// and host memory.
//
// The run span's wall time is reported per simulated event: a seed
// changes a simulation's event count (by up to a quarter on the
// flow-churn workloads), and dividing by that exact count keeps the
// metric a measure of simulator speed rather than of the seed. Every rep
// of a workload repeats one deterministic simulation, so reps differ
// only by host noise, which only adds time: the fastest rep is the
// steadiest estimate of what the simulator costs. The median and p75
// travel with it as its quartiles; on a shared VM they drift with the
// neighbours by up to a fifth over minutes, too far to gate on.
//
// bound sits above the spreads measured across ten seeds on a shared
// 2-vCPU VM, where a seed's own simulation moves heap_live_mb by up to
// a tenth; setup_s, sub-millisecond, gets the widest. compareBound
// sits above the spread between two sets of one seed (README.md): the
// live heap repeats to the byte, while host times drift together by up
// to a ninth between sets minutes apart.
var endToEnd = []metricSpec{
	{name: "run_ns_per_event_min", unit: "ns", better: "lower", bound: 0.20, compareBound: 0.15, q: 0},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, compareBound: 0.15, q: 0.5},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.24, compareBound: 0.05, q: 0.5},
}

// perLayer are the metrics of single layers, named <module>.<metric>:
// exact counts of simulated work, host costs of the untraced reps, CPU
// shares and self-costs from the traced reps, and the drills.
var perLayer = slices.Concat(simCounts, hostCosts, shareSpecs(), tracedCosts)

var simCounts = []metricSpec{
	{name: "engine.events", unit: "count", better: "lower", sim: true},
	{name: "eventq.pending_peak", unit: "count", better: "lower", sim: true},
	{name: "link.frames", unit: "count", better: "lower", sim: true},
	{name: "link.pause_frames", unit: "count", better: "lower", sim: true},
	{name: "fabric.forwarded", unit: "count", better: "lower", sim: true},
	{name: "fabric.ecn_marked", unit: "count", better: "lower", sim: true},
	{name: "fabric.pause_sent", unit: "count", better: "lower", sim: true},
	{name: "fabric.drops", unit: "count", better: "lower", sim: true},
	{name: "nic.cnps_sent", unit: "count", better: "lower", sim: true},
	{name: "nic.cnps_received", unit: "count", better: "lower", sim: true},
	{name: "rocev2.packets_sent", unit: "count", better: "lower", sim: true},
	{name: "rocev2.retransmits", unit: "count", better: "lower", sim: true},
	{name: "rocev2.completions", unit: "count", better: "higher", sim: true},
	{name: "rocev2.flows_opened", unit: "count", better: "higher", sim: true},
	{name: "rocev2.wire_bytes", unit: "bytes", better: "higher", sim: true},
	{name: "hybrid.steps", unit: "count", better: "lower", sim: true},
	{name: "flightrec.events_recorded", unit: "count", better: "lower", sim: true},
	{name: "core.cnps_per_mark", unit: "ratio", better: "lower", sim: true},
	{name: "rocev2.goodput_frac", unit: "ratio", better: "higher", sim: true},
}

var hostCosts = []metricSpec{
	{name: "engine.ns_per_event", unit: "ns", better: "lower"},
	{name: "runtime.allocs_per_event", unit: "count", better: "lower"},
	{name: "runtime.bytes_per_event", unit: "bytes", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "topology.build_s", unit: "s", better: "lower"},
	{name: "workload.inject_s", unit: "s", better: "lower"},
}

var tracedCosts = []metricSpec{
	{name: "eventq.ns_per_event", unit: "ns", better: "lower"},
	{name: "link.ns_per_frame", unit: "ns", better: "lower"},
	{name: "fabric.ns_per_forward", unit: "ns", better: "lower"},
	{name: "hybrid.ns_per_step", unit: "ns", better: "lower"},
	{name: "flightrec.ns_per_record", unit: "ns", better: "lower"},
	{name: "trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "pprof.samples", unit: "count", better: "higher"},
	{name: "eventq.push_pop_ns", unit: "ns", better: "lower"},
	{name: "eventq.push_pop_allocs", unit: "count", better: "lower"},
	{name: "core.rp_on_cnp_ns", unit: "ns", better: "lower"},
	{name: "core.cp_should_mark_ns", unit: "ns", better: "lower"},
	{name: "rocev2.build_next_ns", unit: "ns", better: "lower"},
}

func shareSpecs() []metricSpec {
	s := make([]metricSpec, len(layers))
	for i, l := range layers {
		s[i] = metricSpec{name: l + ".cpu_share", unit: "ratio", better: "lower"}
	}
	return s
}

// bases names the count each ratio is taken of, printed beside it.
var bases = map[string]string{
	"core.cnps_per_mark":  "fabric.ecn_marked",
	"rocev2.goodput_frac": "rocev2.wire_bytes",
}

// stat is one reported metric value. End-to-end metrics also carry the
// quartiles of the per-rep samples they summarize, and the sample
// count.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	P25   float64 `json:"p25,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P75   float64 `json:"p75,omitempty"`
	N     int     `json:"n,omitempty"`
}

func summary(v []float64, q float64, unit string) stat {
	return stat{Value: quantile(v, q), Unit: unit, P25: quantile(v, 0.25), P50: median(v), P75: quantile(v, 0.75), N: len(v)}
}

// endToEndStats summarizes the untraced reps of one workload.
func endToEndStats(s *series) map[string]stat {
	per := map[string]func(*rep) float64{
		"run_ns_per_event_min": (*rep).nsPerEvent,
		"setup_s":              (*rep).setup,
		"heap_live_mb":         func(r *rep) float64 { return r.heapLive / 1e6 },
	}
	out := make(map[string]stat, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = summary(s.values(per[m.name]), m.q, m.unit)
	}
	return out
}

// drillResults are the layer drills' host costs.
type drillResults struct {
	pushPopNs, pushPopAllocs, rpOnCNPNs, cpShouldMarkNs, buildNextNs float64
}

// runDrills times every drill, the event queue at depth.
func runDrills(depth int) drillResults {
	var d drillResults
	d.pushPopNs, d.pushPopAllocs = eventqDrill(depth)
	d.rpOnCNPNs = rpDrill()
	d.cpShouldMarkNs = cpDrill()
	d.buildNextNs = buildNextDrill()
	return d
}

// layerStats assembles the per-layer metrics of one workload from its
// untraced reps (counts, runtime/metrics deltas, set-up spans), its
// traced reps and their charged profile samples, and the drills.
func layerStats(timed, traced *series, sh *shares, d drillResults) map[string]stat {
	c := timed.ref.counts
	ev := float64(max(c.Events, 1))
	per := func(f func(r *rep) float64) float64 { return median(timed.values(f)) }
	v := map[string]float64{
		"engine.events":             float64(c.Events),
		"eventq.pending_peak":       float64(c.PendingPeak),
		"link.frames":               float64(c.LinkFrames),
		"link.pause_frames":         float64(c.LinkPauseFrames),
		"fabric.forwarded":          float64(c.Forwarded),
		"fabric.ecn_marked":         float64(c.EcnMarked),
		"fabric.pause_sent":         float64(c.PauseSent),
		"fabric.drops":              float64(c.Drops),
		"nic.cnps_sent":             float64(c.CNPsSent),
		"nic.cnps_received":         float64(c.CNPsReceived),
		"rocev2.packets_sent":       float64(c.PacketsSent),
		"rocev2.retransmits":        float64(c.Retransmits),
		"rocev2.completions":        float64(c.Completions),
		"rocev2.flows_opened":       float64(c.FlowsOpened),
		"rocev2.wire_bytes":         float64(c.WireBytes),
		"hybrid.steps":              float64(c.HybridSteps),
		"flightrec.events_recorded": float64(c.Recorded),
		"core.cnps_per_mark":        ratio(c.CNPsSent, c.EcnMarked),
		"rocev2.goodput_frac":       ratio(c.PayloadAcked, c.WireBytes),
		"engine.ns_per_event":       per((*rep).nsPerEvent),
		"runtime.allocs_per_event":  per(func(r *rep) float64 { return r.rt.allocs / ev }),
		"runtime.bytes_per_event":   per(func(r *rep) float64 { return r.rt.bytes / ev }),
		"runtime.gc_cycles":         per(func(r *rep) float64 { return r.rt.gcCycles }),
		"runtime.gc_cpu_share":      per(func(r *rep) float64 { return r.rt.gcCPU / max(r.rt.totalCPU, 1e-12) }),
		"topology.build_s":          per(func(r *rep) float64 { return r.build }),
		"workload.inject_s":         per(func(r *rep) float64 { return r.inject }),
		"pprof.samples":             float64(sh.samples),
		"eventq.push_pop_ns":        d.pushPopNs,
		"eventq.push_pop_allocs":    d.pushPopAllocs,
		"core.rp_on_cnp_ns":         d.rpOnCNPNs,
		"core.cp_should_mark_ns":    d.cpShouldMarkNs,
		"rocev2.build_next_ns":      d.buildNextNs,
	}
	for _, l := range layers {
		v[l+".cpu_share"] = sh.share(l)
	}
	// Self-costs: a layer's share of the traced run time, per unit of
	// the work it does. The shares and the run times come from the same
	// traced reps, those that passed.
	tracedRun := traced.values(func(r *rep) float64 { return r.run })
	var runNs float64
	for _, t := range tracedRun {
		runNs += t * 1e9
	}
	self := func(layer string, count int64) float64 {
		if count == 0 || len(tracedRun) == 0 {
			return 0
		}
		return sh.share(layer) * runNs / float64(count*int64(len(tracedRun)))
	}
	v["eventq.ns_per_event"] = self("eventq", c.Events)
	v["link.ns_per_frame"] = self("link", c.LinkFrames)
	v["fabric.ns_per_forward"] = self("fabric", c.Forwarded)
	v["hybrid.ns_per_step"] = self("hybrid", c.HybridSteps)
	v["flightrec.ns_per_record"] = self("flightrec", c.Recorded)
	untracedP50 := median(timed.values(func(r *rep) float64 { return r.run }))
	v["trace_overhead_frac"] = 0
	if len(tracedRun) > 0 && untracedP50 > 0 {
		v["trace_overhead_frac"] = median(tracedRun)/untracedP50 - 1
	}

	out := make(map[string]stat, len(perLayer))
	for _, m := range perLayer {
		x, ok := v[m.name]
		if !ok {
			panic("no value for per-layer metric " + m.name)
		}
		out[m.name] = stat{Value: x, Unit: m.unit}
	}
	if len(v) != len(perLayer) {
		panic(fmt.Sprintf("%d per-layer values for %d declared metrics", len(v), len(perLayer)))
	}
	return out
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
