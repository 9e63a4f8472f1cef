// Command dcqcn-sim runs one configurable incast scenario and reports
// per-flow goodput, queue statistics and fabric counters — a quick way
// to explore parameter settings without writing code.
//
// Usage:
//
//	dcqcn-sim [-senders 8] [-chunk 2000000] [-duration 50ms] [-seed 1]
//	          [-mode dcqcn|pfc|nopfc] [-kmin 5000] [-kmax 200000]
//	          [-pmax 0.01] [-g 0.00390625] [-timer 55us] [-bc 10000000]
//	          [-cc name] [-bg-flows N] [-stagger 0]
//	          [-series file.csv] [-chrome trace.json] [-record events.csv]
//
// -cc swaps the congestion-control algorithm (internal/cc registry name:
// dcqcn, timely, dctcp, switch-assist, policy, ...). With a non-default
// algorithm the DCQCN tuning flags (-kmin, -g, ...) are ignored — the
// algorithm runs its registered defaults.
//
// -bg-flows=N puts N long-lived background flows under the
// incast as a fluid DCQCN substrate (internal/hybrid): they press on
// the same shared buffer and ECN marking the incast sees, at a cost
// independent of N — 1M flows run as fast as 10.
//
// -stagger d opens sender i (0-based) at i·d instead of all at time 0.
// -series writes every sender's paced rate and the bottleneck queue as
// CSV, one row per 100 µs, ready for plotting; a sender that has not
// opened reads 0. The paper's Figs. 10 and 13 convergence run is
//
//	dcqcn-sim -senders 2 -chunk 8000000 -stagger 5ms -duration 105ms -series trace.csv
//
// -chrome arms the flight recorder and writes the run as Chrome
// trace-event JSON (open in Perfetto or chrome://tracing); -record
// writes its raw per-event CSV. All three are passive: the summary is
// identical with or without them.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"dcqcn"
)

// seriesPeriod is the -series sampling period.
const seriesPeriod = 100 * dcqcn.Microsecond

func main() {
	senders := flag.Int("senders", 8, "incast degree")
	chunk := flag.Int64("chunk", 2_000_000, "transfer size in bytes")
	duration := flag.Duration("duration", 50*time.Millisecond, "simulated run time")
	seed := flag.Int64("seed", 1, "simulation seed")
	mode := flag.String("mode", "dcqcn", "dcqcn | pfc | nopfc")
	kmin := flag.Int64("kmin", 5_000, "ECN K_min (bytes)")
	kmax := flag.Int64("kmax", 200_000, "ECN K_max (bytes)")
	pmax := flag.Float64("pmax", 0.01, "ECN P_max")
	g := flag.Float64("g", 1.0/256, "DCQCN alpha gain g")
	timer := flag.Duration("timer", 55*time.Microsecond, "rate increase timer")
	bc := flag.Int64("bc", 10_000_000, "byte counter (bytes)")
	ccName := flag.String("cc", "dcqcn", "congestion-control algorithm (internal/cc registry name)")
	bgFlows := flag.Int("bg-flows", 0, "background flows modeled as fluid classes (0 = substrate off)")
	stagger := flag.Duration("stagger", 0, "sender i (0-based) opens its flow at i times this offset")
	series := flag.String("series", "", "write per-flow rates and the bottleneck queue as CSV to this file")
	chrome := flag.String("chrome", "", "write the run as Chrome trace-event JSON to this file")
	record := flag.String("record", "", "write the flight recorder's raw event CSV to this file")
	flag.Parse()

	switch {
	case *senders < 1:
		die(2, "-senders must be at least 1")
	case *chunk < 1:
		die(2, "-chunk must be at least 1 byte")
	case *duration <= 0:
		die(2, "-duration must be positive")
	case *stagger < 0:
		die(2, "-stagger must not be negative")
	}

	params := dcqcn.DefaultParams()
	params.KMin, params.KMax, params.PMax = *kmin, *kmax, *pmax
	params.G = *g
	params.RateTimer = simDuration(*timer)
	params.ByteCounter = *bc
	if err := params.Validate(); err != nil {
		die(2, err)
	}

	opts := dcqcn.DefaultOptions().WithDCQCN(params)
	switch *mode {
	case "dcqcn":
	case "pfc":
		opts = opts.WithPFCOnly()
	case "nopfc":
		opts = opts.WithoutPFC()
	default:
		die(2, fmt.Sprintf("unknown mode %q", *mode))
	}
	if *ccName != "dcqcn" {
		if *mode != "dcqcn" {
			die(2, "-cc requires -mode dcqcn")
		}
		var err error
		if opts, err = opts.WithCC(*ccName); err != nil {
			die(2, err)
		}
	}
	// Last, so the substrate inherits the marking profile the mode and
	// cc flags settled on.
	if *bgFlows > 0 {
		opts = opts.WithBackgroundFlows(*bgFlows)
	}

	sim := dcqcn.NewStarNetwork(*seed, *senders+1, opts)
	var fr *dcqcn.FlightRecorder
	if *chrome != "" || *record != "" {
		fr = sim.AttachFlightRecorder()
	}
	receiver := sim.Host(fmt.Sprintf("H%d", *senders+1)).NodeID()
	bytesDone := make([]int64, *senders)
	flows := make([]*dcqcn.Flow, *senders) // nil until the sender opens
	open := func(i int) {
		flow := sim.Host(fmt.Sprintf("H%d", i+1)).OpenFlow(receiver)
		flows[i] = flow
		var post func()
		post = func() {
			flow.PostMessage(*chunk, func(c dcqcn.Completion) {
				bytesDone[i] += c.Size
				post()
			})
		}
		post()
	}
	// Every open is scheduled before any sampler is armed, so a join
	// runs before a sample that falls on the same instant.
	for i := range flows {
		if at := dcqcn.Time(simDuration(time.Duration(i) * *stagger)); at == 0 {
			open(i)
		} else {
			sim.At(at, func() { open(i) })
		}
	}

	// Sample the bottleneck queue.
	var samples []int64
	stop := sim.Every(10*dcqcn.Microsecond, func(dcqcn.Time) {
		samples = append(samples, sim.QueueLength("SW", *senders))
	})
	var rows bytes.Buffer
	if *series != "" {
		rows.WriteString("time_s")
		for i := range flows {
			fmt.Fprintf(&rows, ",flow%d_gbps", i+1)
		}
		rows.WriteString(",queue_kb\n")
		sim.Every(seriesPeriod, func(now dcqcn.Time) {
			fmt.Fprintf(&rows, "%.9f", now.Seconds())
			for _, f := range flows {
				gbps := 0.0
				if f != nil {
					gbps = float64(f.CurrentRate()) / 1e9
				}
				fmt.Fprintf(&rows, ",%g", gbps)
			}
			fmt.Fprintf(&rows, ",%g\n", float64(sim.QueueLength("SW", *senders))/1000)
		})
	}
	horizon := simDuration(*duration)
	sim.RunFor(horizon)
	stop()

	secs := horizon.Seconds()
	rates := make([]float64, *senders)
	total := 0.0
	for i, b := range bytesDone {
		rates[i] = float64(b) * 8 / secs / 1e9
		total += rates[i]
	}
	sort.Float64s(rates)
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pct := func(p float64) int64 {
		if len(samples) == 0 {
			return 0
		}
		return samples[int(p*float64(len(samples)-1))]
	}

	sw := sim.Switch("SW")
	fmt.Printf("%d:1 incast, %s chunks, %v, mode=%s\n", *senders, byteCount(*chunk), horizon, *mode)
	if *bgFlows > 0 {
		fmt.Printf("  hybrid:  %d background flows as fluid classes\n", *bgFlows)
	}
	fmt.Printf("  goodput: min=%.2fG p50=%.2fG max=%.2fG total=%.1fG (fair share %.2fG)\n",
		rates[0], rates[*senders/2], rates[*senders-1], total, 40.0/float64(*senders))
	fmt.Printf("  queue:   p50=%.1fKB p90=%.1fKB p99=%.1fKB\n",
		float64(pct(0.50))/1000, float64(pct(0.90))/1000, float64(pct(0.99))/1000)
	fmt.Printf("  fabric:  PAUSE=%d ECN=%d drops=%d\n", sw.PauseSent, sw.EcnMarked, sw.Drops)

	if *series != "" {
		if err := os.WriteFile(*series, rows.Bytes(), 0o666); err != nil {
			die(1, err)
		}
	}
	if *chrome != "" {
		writeFile(*chrome, fr.WriteChromeTrace)
		fmt.Fprintf(os.Stderr, "wrote Chrome trace (%d events) to %s\n", fr.EventsRecorded(), *chrome)
	}
	if *record != "" {
		writeFile(*record, fr.WriteEventsCSV)
		fmt.Fprintf(os.Stderr, "wrote event CSV (%d events) to %s\n", fr.EventsRecorded(), *record)
	}
}

// simDuration converts a flag's wall-clock duration to simulated time.
func simDuration(d time.Duration) dcqcn.Duration {
	return dcqcn.Duration(d.Nanoseconds()) * dcqcn.Nanosecond
}

// writeFile creates path and fills it with write; any error exits 1.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
	}
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		die(1, err)
	}
}

// die prints msg and exits with code: 2 for a bad flag, 1 for a failed
// run.
func die(code int, msg any) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(code)
}

func byteCount(b int64) string {
	switch {
	case b >= 1_000_000:
		return fmt.Sprintf("%.1fMB", float64(b)/1e6)
	case b >= 1_000:
		return fmt.Sprintf("%.1fKB", float64(b)/1e3)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
