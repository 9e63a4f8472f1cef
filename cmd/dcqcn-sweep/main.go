// Command dcqcn-sweep runs the registered experiment scenarios as a
// parallel sweep: every (scenario, grid point, seed) combination is an
// independent single-threaded simulation, fanned out over a bounded
// worker pool. Results land as structured artifacts in the output
// directory:
//
//	raw_runs.jsonl   one JSON record per run (streamed as runs finish)
//	summary.json     per-point mean/p50/p95 aggregates across seeds
//	provenance.json  git commit, Go version, seeds, wall time
//
// Usage:
//
//	dcqcn-sweep [-scenario name,glob*] [-parallel N] [-reruns N]
//	            [-seeds N] [-out dir] [-full] [-check-determinism]
//	            [-list] [-quiet] [-record]
//	            [-cc name[,name...]] [-cc-params json] [-list-cc]
//	            [-bg-flows N]
//
// -check-determinism reruns every (point, seed) at least twice and fails
// loudly unless engine digests and metrics are bit-identical — the gate
// that catches map-iteration or shared-RNG nondeterminism.
//
// -cc selects the congestion-control algorithm(s) from the internal/cc
// registry. With several names the whole scenario matrix runs once per
// algorithm: per-algorithm artifacts land in <out>/cc-<name>/ and a
// head-to-head comparison (cc_compare.json plus a printed table) lands
// in <out>/. The runs that compare DCQCN itself against something else
// always run DCQCN, whatever -cc names: fig10, convergence-fig13,
// fig19's dcqcn point, fig20 and every ablation-* scenario
// (ablation-faststart's dcqcn point included). timely-comparison names
// both of its algorithms.
//
// -bg-flows N (N > 0) arms the fluid/packet co-simulation substrate
// (internal/hybrid) on every run: N long-lived background flows are
// modeled as fluid DCQCN classes coupled into the fabric's buffers and
// ECN marking, at a cost independent of the flow count. The hybrid-*
// scenarios (registered regardless) sweep 10k/100k/1M background flows
// and validate the approximation against pure-packet ground truth.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dcqcn/internal/cc"
	"dcqcn/internal/experiments"
	"dcqcn/internal/flightrec"
	"dcqcn/internal/harness"
	"dcqcn/internal/simtime"
)

func main() {
	var (
		scenario = flag.String("scenario", "all", "comma-separated scenario names (prefix globs allowed, e.g. ablation-*)")
		parallel = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		reruns   = flag.Int("reruns", 1, "repetitions of every (point, seed) run")
		out      = flag.String("out", "sweep-out", "artifact directory ('' disables artifacts)")
		full     = flag.Bool("full", false, "high-fidelity runs (slow)")
		checkDet = flag.Bool("check-determinism", false, "rerun each (point, seed) and fail on digest mismatch")
		seedCap  = flag.Int("seeds", 0, "cap seeds per scenario (0 = all registered)")
		list     = flag.Bool("list", false, "list scenarios and exit")
		quiet    = flag.Bool("quiet", false, "suppress per-run progress")
		record   = flag.Bool("record", false, "arm the flight recorder on every run (recorded in provenance)")
		ccSpec   = flag.String("cc", "dcqcn", "comma-separated congestion-control algorithms (see -list-cc)")
		ccParams = flag.String("cc-params", "", "JSON object overlaid onto the selected algorithm's default params (single -cc only)")
		listCC   = flag.Bool("list-cc", false, "list registered cc algorithms with default params as JSON and exit")
		bgFlows  = flag.Int("bg-flows", 0, "background flows modeled as fluid classes on every run (0 = substrate off)")
	)
	flag.Parse()

	if *listCC {
		for _, name := range cc.Names() {
			sel, err := cc.Select(name, 40*simtime.Gbps)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("%-14s signals=%-28s %s\n  defaults: %s\n",
				sel.Name, sel.Caps(), sel.Algorithm.Description, sel.ParamsJSON())
		}
		return
	}

	sels, err := cc.ParseSelections(*ccSpec, 40*simtime.Gbps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *ccParams != "" {
		if len(sels) != 1 {
			fmt.Fprintln(os.Stderr, "dcqcn-sweep: -cc-params requires exactly one -cc algorithm")
			os.Exit(2)
		}
		if err := sels[0].ApplyParamsJSON([]byte(*ccParams)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if *record {
		// Armed before NewProvenance so flightrec_armed lands in the
		// artifact. The sink is nil: the sweep keeps no recordings.
		// -check-determinism compares armed reruns with each other; the
		// recorder row of TestGoldenDigests compares armed digests with
		// unarmed ones, and dcqcn-replay inspects a recorded run.
		flightrec.Arm(flightrec.Config{}, nil)
	}

	baseFid := experiments.Quick()
	fidName := "quick"
	if *full {
		baseFid = experiments.Full()
		fidName = "full"
	}
	baseFid.Hybrid = *bgFlows > 0
	baseFid.BgFlows = *bgFlows

	if *list {
		reg := harness.NewRegistry()
		experiments.RegisterAll(reg, baseFid)
		for _, sc := range reg.All() {
			fmt.Printf("%-18s %3d points x %d seeds  %s\n",
				sc.Name, len(sc.Points), len(sc.Seeds), sc.Description)
		}
		return
	}

	// The whole scenario matrix runs once per selected algorithm; with a
	// single -cc name this collapses to the classic single-sweep layout.
	multi := len(sels) > 1
	cmp := harness.CCComparison{SchemaVersion: 1}
	for i, sel := range sels {
		fid := baseFid
		fid.CC = sel.Name
		if *ccParams != "" {
			fid.CCParams = sel.ParamsJSON()
		}
		reg := harness.NewRegistry()
		experiments.RegisterAll(reg, fid)
		scs, err := reg.Select(*scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *seedCap > 0 {
			for i := range scs {
				if len(scs[i].Seeds) > *seedCap {
					scs[i].Seeds = scs[i].Seeds[:*seedCap]
				}
			}
		}
		dir := *out
		if multi && dir != "" {
			dir = filepath.Join(dir, "cc-"+sel.Name)
		}
		if multi {
			fmt.Fprintf(os.Stderr, "== cc=%s (%d/%d)\n", sel.Name, i+1, len(sels))
		}

		prov := harness.NewProvenance("dcqcn-sweep")
		prov.Parallel = *parallel
		prov.Reruns = *reruns
		prov.Determinism = *checkDet
		prov.Fidelity = fidName
		prov.Hybrid = fid.Hybrid
		prov.BgFlows = fid.BgFlows
		prov.CC = sel.Name
		prov.CCParams = sel.ParamsJSON()
		prov.Describe(scs)

		cfg := harness.Config{
			Parallel:         *parallel,
			Reruns:           *reruns,
			CheckDeterminism: *checkDet,
		}
		if !*quiet {
			cfg.Progress = func(done, total int, rec harness.RunRecord) {
				fmt.Fprintf(os.Stderr, "\r[%d/%d] %s/%s seed=%d (%.0f ms)        ",
					done, total, rec.Scenario, rec.Point, rec.Seed, rec.WallMS)
			}
		}
		var rawFile *os.File
		if dir != "" {
			rawFile, err = harness.OpenRawWriter(dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			cfg.RawWriter = rawFile
		}

		res, sweepErr := harness.Sweep(scs, cfg)
		if rawFile != nil {
			if err := rawFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if !*quiet {
			fmt.Fprintln(os.Stderr)
		}
		if sweepErr != nil {
			fmt.Fprintln(os.Stderr, sweepErr)
			if res != nil {
				for _, v := range res.DeterminismViolations {
					fmt.Fprintf(os.Stderr, "  violation: %s\n", v)
				}
			}
			os.Exit(1)
		}

		prov.Record(res)

		if !multi {
			for _, sc := range scs {
				fmt.Printf("=== %s — %s\n%s\n", sc.Name, sc.Description, res.Table(sc.Name))
			}
		}
		fmt.Printf("cc=%s: %d runs, %d simulated events, wall %.1fs\n",
			sel.Name, len(res.Records), res.TotalEvents, res.Wall.Seconds())
		if *checkDet {
			fmt.Println("determinism gate: PASS (identical digests across reruns)")
		}
		if flightrec.Armed() {
			fmt.Println("flight recorder: armed on every run (-record)")
		}

		if dir != "" {
			if err := harness.WriteArtifacts(dir, res, prov); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("artifacts: %s\n", filepath.Join(dir, "{"+harness.RawRunsFile+","+harness.SummaryFile+","+harness.ProvenanceFile+"}"))
		}

		if i == 0 {
			cmp.Scenarios = prov.Scenarios
		}
		cmp.Algorithms = append(cmp.Algorithms, harness.CCAlgoResult{
			CC:           sel.Name,
			Capabilities: sel.Caps().String(),
			Params:       sel.ParamsJSON(),
			TotalRuns:    len(res.Records),
			TotalEvents:  res.TotalEvents,
			WallMS:       float64(res.Wall) / float64(time.Millisecond),
			Summaries:    res.Summaries,
		})
	}

	if multi {
		cmp.Canonicalize()
		fmt.Printf("\n=== head-to-head (%d algorithms, mean over seeds)\n%s", len(cmp.Algorithms), cmp.Table())
		if *out != "" {
			if err := harness.WriteCCComparison(*out, cmp); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("comparison: %s\n", filepath.Join(*out, harness.CCCompareFile))
		}
	}
}
