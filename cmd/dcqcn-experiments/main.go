// Command dcqcn-experiments regenerates every table and figure of the
// DCQCN paper's evaluation on the simulated testbed and prints them in
// the order the paper presents them.
//
// Every packet-level experiment is consumed from the sweep-harness
// scenario registry (the same registry cmd/dcqcn-sweep exposes), so each
// figure is a parallel multi-seed sweep with per-point aggregates; the
// fluid-model, host-model and analytical figures and the class-isolation
// extension remain direct calls.
//
// Usage:
//
//	dcqcn-experiments [-full] [-only fig16] [-list] [-parallel N]
//	                  [-cc name] [-bg-flows N]
//
// -full uses the high-fidelity settings recorded in EXPERIMENTS.md
// (minutes of CPU time); the default quick settings finish in well under
// a minute and preserve every qualitative conclusion. -cc swaps the
// congestion-control algorithm (internal/cc registry name) for the
// DCQCN modes of every experiment, except the runs that compare DCQCN
// itself against something else — fig10 (the fluid model), fig13, the
// DCQCN side of fig19 (DCTCP), fig20 (a marking change) and the
// ablations, fast start's DCQCN side included — which always run DCQCN,
// and the timely extension, which always compares DCQCN with TIMELY.
// -bg-flows=N runs every packet-level experiment over N fluid
// background flows (internal/hybrid); the hybrid experiment entry
// itself sweeps the hybrid-* scenarios regardless.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"dcqcn/internal/buffercalc"
	"dcqcn/internal/cc"
	"dcqcn/internal/experiments"
	"dcqcn/internal/harness"
	"dcqcn/internal/invariant"
	"dcqcn/internal/simtime"
)

type experiment struct {
	name string
	desc string
	run  func() string
}

// sweep renders the named registry scenarios (a Select expression) by
// sweeping them over the worker pool and printing per-point aggregates.
func sweep(reg *harness.Registry, selection string, parallel int) func() string {
	return func() string {
		scs, err := reg.Select(selection)
		if err != nil {
			return err.Error() + "\n"
		}
		res, err := harness.Sweep(scs, harness.Config{Parallel: parallel})
		if err != nil {
			return err.Error() + "\n"
		}
		var b strings.Builder
		for i, sc := range scs {
			if len(scs) > 1 {
				if i > 0 {
					b.WriteString("\n")
				}
				fmt.Fprintf(&b, "%s:\n", sc.Name)
			}
			b.WriteString(res.Table(sc.Name))
		}
		return b.String()
	}
}

func all(reg *harness.Registry, fid experiments.Fidelity, parallel int) []experiment {
	return []experiment{
		{"fig1", "TCP vs RDMA throughput / CPU / latency (host model)",
			func() string { return experiments.Fig1Table() }},
		{"fig3+8", "PFC unfairness H1-H4 -> R; DCQCN fixes it",
			sweep(reg, "unfairness", parallel)},
		{"fig4+9", "Victim flow vs senders under T3, per mode",
			sweep(reg, "victimflow", parallel)},
		{"fig10", "Fluid model vs packet-level implementation",
			sweep(reg, "fig10", parallel)},
		{"fig11", "Convergence sweeps: byte counter, timer, Kmax, Pmax (fluid)",
			func() string {
				sweeps := experiments.Fig11Sweeps()
				keys := make([]string, 0, len(sweeps))
				for k := range sweeps {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				var b strings.Builder
				for _, k := range keys {
					fmt.Fprintf(&b, "%s:\n", k)
					for _, p := range sweeps[k] {
						fmt.Fprintf(&b, "  %-14s mean |r1-r2| = %6.2f Gbps\n", p.Label, p.RateDiff)
					}
				}
				return b.String()
			}},
		{"fig12", "Queue length vs g (fluid, 2:1 and 16:1 incast)",
			func() string {
				return experiments.Fig12Table(experiments.Fig12AlphaGain())
			}},
		{"fig13", "Parameter validation microbenchmarks (packet-level)",
			sweep(reg, "convergence-fig13", parallel)},
		{"fig14", "Deployed parameter table",
			func() string { return paramsTable() }},
		{"fig15+16", "Benchmark traffic: user/incast percentiles and spine PAUSEs",
			sweep(reg, "benchmark-fig16", parallel)},
		{"fig17", "16x load: 5 pairs no-DCQCN vs 80 pairs DCQCN (incast 10)",
			sweep(reg, "fig17", parallel)},
		{"fig18", "Need for PFC and correct thresholds (8:1 incast)",
			sweep(reg, "fig18", parallel)},
		{"fig19", "Queue length CDF: DCQCN vs DCTCP (20:1 incast)",
			sweep(reg, "fig19", parallel)},
		{"fig20", "Multi-bottleneck parking lot: cut-off vs RED marking",
			sweep(reg, "fig20", parallel)},
		{"sec7-loss", "Non-congestion random loss vs go-back-N goodput",
			sweep(reg, "randomloss", parallel)},
		{"sec4", "Buffer thresholds (t_flight, t_PFC, t_ECN)",
			func() string { return bufferTable() }},
		{"sec6.1", "K:1 incast summary: utilization, queue, losslessness",
			sweep(reg, "incast", parallel)},
		{"classes", "Extension: PFC class isolation (multi-class, DRR)",
			func() string {
				return experiments.ClassIsolationTable(experiments.ClassIsolation(fid))
			}},
		{"timely", "Extension: DCQCN (ECN) vs TIMELY (delay) baseline",
			sweep(reg, "timely-comparison", parallel)},
		{"ablations", "Design-choice ablations (g, R_AI, timer, CNP priority, fast start)",
			sweep(reg, "ablation-*", parallel)},
		{"chaos", "Fault injection: pause storms, flaps, loss windows, deadlock probe",
			sweep(reg, "chaos-*", parallel)},
		{"hybrid", "Hybrid fluid/packet co-simulation: 10k/100k/1M background flows + validation",
			sweep(reg, "hybrid-*", parallel)},
	}
}

func paramsTable() string {
	return `parameter     value        (paper Fig. 14)
------------  -----------
timer         55 us
byte counter  10 MB
K_max         200 KB
K_min         5 KB
P_max         1%
g             1/256
F             5
R_AI          40 Mbps
CNP interval  50 us
alpha timer   55 us
`
}

func bufferTable() string {
	return fmt.Sprintf("Arista 7050QX32 (B=12MB, n=32, 8 priorities, 40G, MTU 1500):\n  %s\n",
		bufplan())
}

func main() {
	full := flag.Bool("full", false, "high-fidelity runs (slow)")
	only := flag.String("only", "", "run a single experiment by name")
	list := flag.Bool("list", false, "list experiments and exit")
	parallel := flag.Int("parallel", 0, "worker pool for scenario sweeps (0 = GOMAXPROCS)")
	ccName := flag.String("cc", "dcqcn", "congestion-control algorithm for the DCQCN modes (internal/cc registry name)")
	bgFlows := flag.Int("bg-flows", 0, "background flows modeled as fluid classes on every experiment (0 = substrate off)")
	flag.Parse()

	fid := experiments.Quick()
	if *full {
		fid = experiments.Full()
	}
	if _, err := cc.Select(*ccName, 40*simtime.Gbps); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fid.CC = *ccName
	fid.Hybrid = *bgFlows > 0
	fid.BgFlows = *bgFlows
	reg := harness.NewRegistry()
	experiments.RegisterAll(reg, fid)

	exps := all(reg, fid, *parallel)
	if *list {
		for _, e := range exps {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}
	if invariant.Enabled {
		fmt.Println("invariants auditor: armed (built with -tags invariants)")
	}
	ran := 0
	for _, e := range exps {
		if *only != "" && e.name != *only {
			continue
		}
		ran++
		start := time.Now()
		out := e.run()
		fmt.Printf("=== %s — %s [%.1fs]\n%s\n", e.name, e.desc, time.Since(start).Seconds(), out)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *only)
		os.Exit(2)
	}
}

func bufplan() string {
	spec := buffercalc.DefaultArista7050QX32()
	return spec.Plan(8).String()
}
