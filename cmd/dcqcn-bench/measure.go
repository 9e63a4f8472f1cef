package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"dcqcn/internal/engine"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// slice is the simulated-time step of the run span: Sim.Run is called
// once per slice and Sim.Pending read in between. Slicing is passive —
// the smoke test checks that sliced and single-call runs agree.
const slice = 100 * simtime.Microsecond

// rep is the outcome of one rep. Times are host seconds.
type rep struct {
	build, inject, run float64
	digest             engine.Digest
	counts             counts
	heapLive           float64 // bytes the finished simulation holds live
	rt                 rtDelta // runtime/metrics deltas over the run span
	failure            string
}

func (r *rep) setup() float64 { return r.build + r.inject }

// nsPerEvent is the run span's host nanoseconds per simulated event.
func (r *rep) nsPerEvent() float64 { return r.run * 1e9 / float64(max(r.counts.Events, 1)) }

// runRep executes one fresh simulation of w. With prof non-nil a CPU
// profile covers exactly the setup and run spans, whose samples carry
// pprof labels workload and span. single runs the horizon in one
// Sim.Run call instead of slices (used only to check slicing is
// passive).
func runRep(w *workload, seed int64, prof *bytes.Buffer, single bool) (out rep) {
	profiling := false
	defer func() {
		if profiling {
			pprof.StopCPUProfile()
		}
		if p := recover(); p != nil {
			out.failure = fmt.Sprintf("panic: %v", p)
		}
	}()
	// Every rep starts from a collected heap, so one rep's garbage is
	// not charged to the next rep's spans; what is live now is the
	// benchmark's own state, left out of the simulation's footprint.
	base := heapLive()
	setupLabels := pprof.Labels("workload", w.name, "span", "setup")
	runLabels := pprof.Labels("workload", w.name, "span", "run")
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			out.failure = "cpu profile: " + err.Error()
			return out
		}
		profiling = true
	}
	var r *rig
	pprof.Do(context.Background(), setupLabels, func(context.Context) {
		t0 := time.Now()
		r = w.build(seed)
		t1 := time.Now()
		w.inject(r, seed)
		out.build, out.inject = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
	})
	peak := 0
	before := readRuntime()
	pprof.Do(context.Background(), runLabels, func(context.Context) {
		t0 := time.Now()
		peak = runSpan(r.net, w.horizon, single)
		out.run = time.Since(t0).Seconds()
	})
	out.rt = readRuntime().sub(before)
	if profiling {
		pprof.StopCPUProfile()
		profiling = false
	}
	out.heapLive = heapLive() - base
	out.digest = r.net.Sim.Digest()
	out.counts = collect(r, peak)
	out.failure = w.check(r, out.counts)
	runtime.KeepAlive(r)
	return out
}

// runSpan advances the simulation to horizon and returns the peak
// pending-event count seen at slice boundaries.
func runSpan(net *topology.Network, horizon simtime.Duration, single bool) int {
	if single {
		net.Sim.Run(simtime.Time(horizon))
		return net.Sim.Pending()
	}
	peak := 0
	for t := slice; ; t += slice {
		t = min(t, horizon)
		net.Sim.Run(simtime.Time(t))
		peak = max(peak, net.Sim.Pending())
		if t == horizon {
			return peak
		}
	}
}

// rtDelta is the change of the runtime/metrics counters over a span.
type rtDelta struct {
	allocs, bytes, gcCycles, gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtDelta {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		v[i] = sampleValue(s[i])
	}
	return rtDelta{allocs: v[0] + v[1], bytes: v[2], gcCycles: v[3], gcCPU: v[4], totalCPU: v[5]}
}

func (a rtDelta) sub(b rtDelta) rtDelta {
	return rtDelta{a.allocs - b.allocs, a.bytes - b.bytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	panic("runtime/metrics: unsupported metric " + s.Name)
}

// heapLive collects garbage and returns the bytes of live heap.
func heapLive() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return sampleValue(s[0])
}

// series accumulates the reps of one workload and seed. The first rep
// added is the reference every later rep must reproduce exactly.
type series struct {
	w        *workload
	ref      *rep
	reps     []rep // reps that passed, in order
	attempts int
	failures []string
}

// add checks one rep against the reference and the workload's checks,
// and reports whether it passed and was kept. The reference rep is
// checked but not kept: it is the discarded warm-up.
func (s *series) add(r rep) bool {
	if s.ref == nil {
		s.ref = &r
		if r.failure != "" {
			s.failures = append(s.failures, "warm-up: "+r.failure)
		}
		return false
	}
	s.attempts++
	switch {
	case r.failure != "":
	case r.digest != s.ref.digest:
		r.failure = fmt.Sprintf("digest %v, rep 0 had %v", r.digest, s.ref.digest)
	case r.counts != s.ref.counts:
		r.failure = "per-layer counts differ from rep 0"
	}
	if r.failure != "" {
		s.failures = append(s.failures, r.failure)
		return false
	}
	s.reps = append(s.reps, r)
	return true
}

func (s *series) failed() int { return s.attempts - len(s.reps) }

func (s *series) values(f func(*rep) float64) []float64 {
	v := make([]float64, len(s.reps))
	for i := range s.reps {
		v[i] = f(&s.reps[i])
	}
	return v
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; NaN-free for non-empty v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return quantile(v, 0.5) }
