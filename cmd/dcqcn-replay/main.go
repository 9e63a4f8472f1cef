// Command dcqcn-replay reruns one registered scenario with the flight
// recorder armed and interrogates the recording: per-flow timelines,
// the causal PFC pause-chain tree (the paper's §2 cascade, reconstructed
// from XOFF receptions), run-vs-run diffing, and CSV / Chrome-trace
// export.
//
// Usage:
//
//	dcqcn-replay -scenario chaos-pause-storm [-point 0] [-seed 0] [-full]
//	             [-pause-chain PORT[:prio]] [-flow N] [-events N]
//	             [-diff-seed N [-expect same|diverged]]
//	             [-chrome file] [-csv file] [-max-bytes N] [-list]
//
// With no query flags it prints a run summary (event counts by kind)
// followed by the pause cascade of every host port that received XOFF —
// for chaos-pause-storm that is the §2 tree: the innocent sender's
// egress port, paused by the switch, which was itself back-pressured by
// the storming NIC.
//
//	dcqcn-replay -scenario chaos-pause-storm -diff-seed 1 -expect diverged
//
// reruns the same grid point at a second seed and prints the first
// diverging event with context; -expect turns the comparison into an
// exit status for CI self-checks (same-seed replays must be identical,
// different seeds must not be).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dcqcn/internal/experiments"
	"dcqcn/internal/flightrec"
	"dcqcn/internal/harness"
	"dcqcn/internal/packet"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		scenario   = flag.String("scenario", "chaos-pause-storm", "registered scenario name (see -list)")
		pointIdx   = flag.Int("point", 0, "grid point index within the scenario")
		seed       = flag.Int64("seed", 0, "run seed")
		full       = flag.Bool("full", false, "high-fidelity run (slow)")
		pauseChain = flag.String("pause-chain", "", "print the causal XOFF chain for PORT[:prio] only")
		flowID     = flag.Int64("flow", -1, "print the timeline of one flow id")
		events     = flag.Int("events", 20, "events to print per timeline")
		diffSeed   = flag.Int64("diff-seed", -1, "rerun at this seed and report the first diverging event")
		expect     = flag.String("expect", "", "with -diff-seed: require 'same' or 'diverged' (exit 1 otherwise)")
		chrome     = flag.String("chrome", "", "write Chrome trace-event JSON to this file")
		csvOut     = flag.String("csv", "", "write the raw event CSV to this file")
		maxBytes   = flag.Int("max-bytes", 0, "ring budget in bytes (0 = 16 MB default)")
		list       = flag.Bool("list", false, "list scenarios and exit")
	)
	flag.Parse()

	fid := experiments.Quick()
	if *full {
		fid = experiments.Full()
	}
	reg := harness.NewRegistry()
	experiments.RegisterAll(reg, fid)

	if *list {
		for _, sc := range reg.All() {
			fmt.Printf("%-18s %3d points x %d seeds  %s\n",
				sc.Name, len(sc.Points), len(sc.Seeds), sc.Description)
		}
		return
	}
	switch *expect {
	case "", "same", "diverged":
	default:
		fail("-expect must be 'same' or 'diverged', got %q", *expect)
	}
	if *expect != "" && *diffSeed < 0 {
		fail("-expect requires -diff-seed")
	}

	scs, err := reg.Select(*scenario)
	if err != nil {
		fail("%v", err)
	}
	if len(scs) != 1 {
		fail("-scenario must select exactly one scenario, got %d", len(scs))
	}
	sc := scs[0]
	if *pointIdx < 0 || *pointIdx >= len(sc.Points) {
		fail("point %d out of range: %s has %d points", *pointIdx, sc.Name, len(sc.Points))
	}

	cfg := flightrec.Config{MaxBytes: *maxBytes}
	rec, dig := runRecorded(sc, *pointIdx, *seed, cfg)
	fmt.Printf("%s point=%d (%s) seed=%d: digest %s\n",
		sc.Name, *pointIdx, sc.Points[*pointIdx].Label, *seed, dig)
	printSummary(rec)

	if *diffSeed >= 0 {
		rec2, dig2 := runRecorded(sc, *pointIdx, *diffSeed, cfg)
		fmt.Printf("\ndiff vs seed=%d (digest %s):\n", *diffSeed, dig2)
		d := flightrec.Diff(rec, rec2)
		fmt.Print(d.Format())
		if *expect == "same" && d != nil {
			fail("expected identical recordings, found a divergence")
		}
		if *expect == "diverged" && d == nil {
			fail("expected a divergence, recordings are identical")
		}
		return
	}

	if *flowID >= 0 {
		printTimeline(rec, packet.FlowID(*flowID), *events)
		return
	}

	if *pauseChain != "" {
		port, prio := parsePortPrio(*pauseChain)
		printChain(rec, port, prio)
	} else {
		printHostCascades(rec)
	}

	writeTo := func(path string, write func(io.Writer) error) {
		f, err := os.Create(path)
		if err == nil {
			err = write(f)
		}
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			fail("%v", err)
		}
	}
	if *chrome != "" {
		writeTo(*chrome, rec.WriteChromeTrace)
		fmt.Printf("wrote Chrome trace to %s (open in https://ui.perfetto.dev)\n", *chrome)
	}
	if *csvOut != "" {
		writeTo(*csvOut, rec.WriteCSV)
		fmt.Printf("wrote event CSV to %s\n", *csvOut)
	}
}

// runRecorded executes one (scenario, point, seed) run with the flight
// recorder armed and returns the run's busiest recording (a scenario may
// build auxiliary networks; the main one dominates the event count).
func runRecorded(sc harness.Scenario, pointIdx int, seed int64, cfg flightrec.Config) (*flightrec.Recorder, string) {
	var recs []*flightrec.Recorder
	flightrec.Arm(cfg, func(r *flightrec.Recorder) { recs = append(recs, r) })
	defer flightrec.Disarm()
	res := sc.Run(harness.RunContext{
		Scenario: sc.Name,
		Point:    sc.Points[pointIdx],
		PointIdx: pointIdx,
		Seed:     seed,
	})
	if len(recs) == 0 {
		fail("scenario %s built no network — nothing recorded", sc.Name)
	}
	best := recs[0]
	for _, r := range recs[1:] {
		if r.EventsRecorded() > best.EventsRecorded() {
			best = r
		}
	}
	return best, res.Digest.String()
}

func printSummary(r *flightrec.Recorder) {
	fmt.Printf("recorded %d events (%d retained, %d evicted, %d KB encoded) across %d nodes\n",
		r.EventsRecorded(), r.EventsRetained(), r.EventsEvicted(), r.RetainedBytes()/1024, len(r.Nodes()))
	var parts []string
	for k := flightrec.KindEnqueue; k <= flightrec.KindFault; k++ {
		if n := r.CountByKind(k); n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, n))
		}
	}
	fmt.Println("  " + strings.Join(parts, " "))
}

// printHostCascades prints the causal pause chain of every host port
// that received XOFF — the victims' view of the storm.
func printHostCascades(r *flightrec.Recorder) {
	sums := r.PausedPorts()
	var printed int
	for _, s := range sums {
		if !s.Host {
			continue
		}
		printChain(r, s.Port, int(s.Prio))
		printed++
	}
	if printed == 0 && len(sums) > 0 {
		fmt.Println("\nPFC activity never reached a host port; switch-side pauses:")
		for _, s := range sums {
			fmt.Printf("  %s prio %d: %d XOFF / %d XON\n", s.Port, s.Prio, s.Xoffs, s.Xons)
		}
	}
	if len(sums) == 0 {
		fmt.Println("no PFC pause frames recorded")
	}
}

func printChain(r *flightrec.Recorder, port string, prio int) {
	if prio < 0 {
		// No priority given: print every paused priority of the port.
		var any bool
		for _, s := range r.PausedPorts() {
			if s.Port == port {
				printChain(r, port, int(s.Prio))
				any = true
			}
		}
		if !any {
			fail("port %q received no XOFF on any priority", port)
		}
		return
	}
	chain, err := r.PauseChain(port, uint8(prio))
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("\ncausal pause chain for %s prio %d:\n", port, prio)
	fmt.Print(flightrec.FormatPauseChain(chain))
}

func printTimeline(r *flightrec.Recorder, flow packet.FlowID, max int) {
	tl := r.FlowTimeline(flow, 0)
	fmt.Printf("\nflow %d: %d retained events", flow, len(tl))
	if len(tl) > max {
		fmt.Printf(" (last %d shown)", max)
		tl = tl[len(tl)-max:]
	}
	fmt.Println()
	for _, e := range tl {
		fmt.Println("  " + e.String())
	}
}

// parsePortPrio splits "PORT" or "PORT:prio"; prio -1 means all.
func parsePortPrio(s string) (string, int) {
	if i := strings.LastIndex(s, ":"); i >= 0 {
		p, err := strconv.Atoi(s[i+1:])
		if err != nil || p < 0 || p >= packet.NumPriorities {
			fail("bad -pause-chain priority in %q", s)
		}
		return s[:i], p
	}
	return s, -1
}
