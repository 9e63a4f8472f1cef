// Command dcqcn-bench is the simulator's benchmark: seeded workloads
// built from the outside through public entry points, measured end to
// end in host time and memory, and broken down layer by layer.
//
//	dcqcn-bench -seed 1 -out bench-out       full suite, writes bench-out/bench.json
//	dcqcn-bench -workload clos-incast -seed 1 -seconds 20 -trace 0
//	                                          one workload, one JSON result line
//	dcqcn-bench -compare parent.json change.json
//
// Simulated time (workload horizons, event counts) and host time (the
// measured spans) are separate quantities; every metric says which it
// uses. The process runs at GOMAXPROCS=1: one simulation is
// single-threaded, and one P keeps the runtime's own work on the
// measured thread. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// Full-suite run discipline.
const (
	// suiteRounds round-robin rounds follow one discarded warm-up round;
	// each runs every workload once, in a fixed order, so a burst of
	// machine noise hits all workloads alike.
	suiteRounds = 40
	// suiteSamples is the CPU-profile sample count each workload's
	// traced reps reach at least. A share near 40% then has a standard
	// error near 1.5 points.
	suiteSamples = 1000
	// maxTracedRounds bounds the traced reps should a workload never
	// reach its sample count.
	maxTracedRounds = 400
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dcqcn-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "workload seed: the same seed builds the same simulations")
	out := fs.String("out", "bench-out", "full suite: directory bench.json is written to")
	name := fs.String("workload", "", "run only this workload for -seconds and print one JSON result line")
	seconds := fs.Int("seconds", 10, "single workload: host seconds to measure for")
	trace := fs.Int("trace", 0, "single workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	cmp := fs.Bool("compare", false, "compare two bench.json files: -compare parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: dcqcn-bench -compare parent.json change.json")
			return 2
		}
		parent, err := readReport(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "dcqcn-bench:", err)
			return 1
		}
		change, err := readReport(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "dcqcn-bench:", err)
			return 1
		}
		compare(stdout, parent, change)
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "dcqcn-bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	runtime.GOMAXPROCS(1)
	ws := workloads()
	if *name == "" {
		rep := suite(stdout, ws, *seed, suiteRounds, suiteSamples)
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(stderr, "dcqcn-bench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "dcqcn-bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "dcqcn-bench: -seconds must be at least 1")
		return 2
	}
	for _, w := range ws {
		if w.name == *name {
			single(stdout, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
			return 0
		}
	}
	fmt.Fprintf(stderr, "dcqcn-bench: unknown workload %q; have", *name)
	for _, w := range ws {
		fmt.Fprint(stderr, " ", w.name)
	}
	fmt.Fprintln(stderr)
	return 2
}

// single measures one workload for d of host time, prints its table
// and, as the last line, one JSON object: the end-to-end metrics, or
// with trace the per-layer metrics.
func single(out io.Writer, w workload, seed int64, d time.Duration, trace bool) {
	deadline := time.Now().Add(d)
	more := func(round int) bool { return round == 1 || time.Now().Before(deadline) }
	p := plan{timed: more}
	if trace {
		p.traced = func(round int, _ int64) bool { return more(round) }
	}
	res := measure([]workload{w}, seed, p)[0]
	printResult(out, res)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(res.Failures) == 0, Attempted: res.Runs, Failed: res.FailedRuns, Metrics: map[string]value{}}
	reported := res.EndToEnd
	if trace {
		reported = res.PerLayer
	}
	for k, s := range reported {
		line.Metrics[k] = value{s.Value, s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain structs of finite floats always marshal
	}
	fmt.Fprintf(out, "%s\n", b)
}

// suite runs the full benchmark: a discarded warm-up round, rounds
// round-robin rounds of untraced reps, traced reps until every workload
// has samples CPU-profile samples, and the drills.
func suite(out io.Writer, ws []workload, seed int64, rounds int, samples int64) report {
	rep := report{Seed: seed, GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Rounds: rounds}
	fmt.Fprintf(out, "dcqcn-bench: seed %d, gomaxprocs %d, num_cpu %d, %s, %d rounds\n",
		seed, rep.GoMaxProcs, rep.NumCPU, rep.GoVersion, rounds)
	rep.Workloads = measure(ws, seed, plan{
		timed: func(round int) bool { return round <= rounds },
		traced: func(round int, got int64) bool {
			return got < samples && round <= rounds+maxTracedRounds
		},
	})
	for _, r := range rep.Workloads {
		printResult(out, r)
	}
	return rep
}

// plan says which reps each round after the warm-up round runs.
type plan struct {
	// timed reports whether round runs an untraced rep of every
	// workload.
	timed func(round int) bool
	// traced, nil for no traced pass, reports whether round runs a
	// traced rep of a workload whose profile holds samples so far.
	traced func(round int, samples int64) bool
}

// measure runs the benchmark's discipline over ws. A warm-up round sets
// each workload's reference rep. Every later round runs each workload
// in a fixed order, an untraced rep and then a traced one as p says, so
// a burst of machine noise hits all workloads and both passes alike;
// measuring ends with the first round that runs nothing. With a traced
// pass the drills run last, and every workload reports its per-layer
// metrics too.
func measure(ws []workload, seed int64, p plan) []result {
	timed := make([]*series, len(ws))
	traced := make([]*series, len(ws))
	sh := make([]*shares, len(ws))
	for i := range ws {
		timed[i], sh[i] = &series{w: &ws[i]}, &shares{}
		timed[i].add(runRep(&ws[i], seed, nil, false))
		traced[i] = &series{w: &ws[i], ref: timed[i].ref}
	}
	for round := 1; ; round++ {
		ran := false
		for i := range ws {
			if p.timed(round) {
				timed[i].add(runRep(&ws[i], seed, nil, false))
				ran = true
			}
			if p.traced != nil && p.traced(round, sh[i].samples) {
				tracedRep(traced[i], seed, sh[i])
				ran = true
			}
		}
		if !ran {
			break
		}
	}
	out := make([]result, len(ws))
	var drills drillResults
	for i := range ws {
		if p.traced == nil {
			out[i] = assemble(timed[i], nil, nil, drills)
			continue
		}
		depth := int(timed[i].ref.counts.PendingPeak)
		if i == 0 {
			drills = runDrills(depth)
		} else {
			drills.pushPopNs, drills.pushPopAllocs = eventqDrill(depth)
		}
		out[i] = assemble(timed[i], traced[i], sh[i], drills)
	}
	return out
}

// tracedRep runs one rep with the CPU profiler on and, if the rep
// passes, charges its samples.
func tracedRep(s *series, seed int64, sh *shares) {
	var prof bytes.Buffer
	r := runRep(s.w, seed, &prof, false)
	var samples []profSample
	if r.failure == "" {
		var err error
		if samples, err = parseProfile(prof.Bytes()); err != nil {
			r.failure = err.Error()
		}
	}
	if s.add(r) {
		sh.add(samples)
	}
}

// assemble reports one workload: end-to-end metrics from the untraced
// reps, and per-layer metrics too when a traced pass ran.
func assemble(timed, traced *series, sh *shares, d drillResults) result {
	w := timed.w
	res := result{
		Workload:   w.name,
		HorizonSim: w.horizon.String(),
		Runs:       timed.attempts,
		FailedRuns: timed.failed(),
		Failures:   timed.failures,
		Digest:     timed.ref.digest.String(),
		RunS:       median(timed.values(func(r *rep) float64 { return r.run })),
		EndToEnd:   endToEndStats(timed),
	}
	if traced == nil {
		return res
	}
	res.Runs += traced.attempts
	res.FailedRuns += traced.failed()
	res.Failures = append(res.Failures, traced.failures...)
	res.PerLayer = layerStats(timed, traced, sh, d)
	return res
}
