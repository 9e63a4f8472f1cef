// Command dcqcn-sim runs one configurable incast scenario and reports
// per-flow goodput, queue statistics and fabric counters — a quick way
// to explore parameter settings without writing code.
//
// Usage:
//
//	dcqcn-sim [-senders 8] [-chunk 2000000] [-duration 50ms] [-seed 1]
//	          [-mode dcqcn|pfc|nopfc] [-kmin 5000] [-kmax 200000]
//	          [-pmax 0.01] [-g 0.00390625] [-timer 55us] [-bc 10000000]
//	          [-cc name] [-hybrid] [-bg-flows N]
//
// -cc swaps the congestion-control algorithm (internal/cc registry name:
// dcqcn, timely, dctcp, switch-assist, policy, ...). With a non-default
// algorithm the DCQCN tuning flags (-kmin, -g, ...) are ignored — the
// algorithm runs its registered defaults.
//
// -hybrid -bg-flows=N puts N long-lived background flows under the
// incast as a fluid DCQCN substrate (internal/hybrid): they press on
// the same shared buffer and ECN marking the incast sees, at a cost
// independent of N — 1M flows run as fast as 10.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"dcqcn"
)

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
	hybrid := flag.Bool("hybrid", false, "arm the fluid background substrate (see -bg-flows)")
	bgFlows := flag.Int("bg-flows", 0, "background flows modeled as fluid classes (> 0 implies -hybrid)")
	flag.Parse()

	params := dcqcn.DefaultParams()
	params.KMin, params.KMax, params.PMax = *kmin, *kmax, *pmax
	params.G = *g
	params.RateTimer = dcqcn.Duration(timer.Nanoseconds()) * dcqcn.Nanosecond
	params.ByteCounter = *bc
	if err := params.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opts := dcqcn.DefaultOptions().WithDCQCN(params)
	switch *mode {
	case "dcqcn":
	case "pfc":
		opts = opts.WithPFCOnly()
	case "nopfc":
		opts = opts.WithoutPFC()
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if *ccName != "dcqcn" {
		if *mode != "dcqcn" {
			fmt.Fprintln(os.Stderr, "-cc requires -mode dcqcn")
			os.Exit(2)
		}
		var err error
		if opts, err = opts.WithCC(*ccName); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	// Last, so the substrate inherits the marking profile the mode and
	// cc flags settled on.
	if *hybrid || *bgFlows > 0 {
		opts = opts.WithBackgroundFlows(*bgFlows)
	}

	sim := dcqcn.NewStarNetwork(*seed, *senders+1, opts)
	receiver := sim.Host(fmt.Sprintf("H%d", *senders+1)).NodeID()
	bytesDone := make([]int64, *senders)
	for i := 0; i < *senders; i++ {
		i := i
		flow := sim.Host(fmt.Sprintf("H%d", i+1)).OpenFlow(receiver)
		var post func()
		post = func() {
			flow.PostMessage(*chunk, func(c dcqcn.Completion) {
				bytesDone[i] += c.Size
				post()
			})
		}
		post()
	}

	// Sample the bottleneck queue.
	var samples []int64
	stop := sim.Every(10*dcqcn.Microsecond, func(dcqcn.Time) {
		samples = append(samples, sim.QueueLength("SW", *senders))
	})
	horizon := dcqcn.Duration(duration.Nanoseconds()) * dcqcn.Nanosecond
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
	if *hybrid || *bgFlows > 0 {
		fmt.Printf("  hybrid:  %d background flows as fluid classes\n", *bgFlows)
	}
	fmt.Printf("  goodput: min=%.2fG p50=%.2fG max=%.2fG total=%.1fG (fair share %.2fG)\n",
		rates[0], rates[*senders/2], rates[*senders-1], total, 40.0/float64(*senders))
	fmt.Printf("  queue:   p50=%.1fKB p90=%.1fKB p99=%.1fKB\n",
		float64(pct(0.50))/1000, float64(pct(0.90))/1000, float64(pct(0.99))/1000)
	fmt.Printf("  fabric:  PAUSE=%d ECN=%d drops=%d\n", sw.PauseSent, sw.EcnMarked, sw.Drops)
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
