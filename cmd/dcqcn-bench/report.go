package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// report is bench.json: one full-suite invocation.
type report struct {
	Seed       int64    `json:"seed"`
	GoMaxProcs int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	GoVersion  string   `json:"go_version"`
	Rounds     int      `json:"rounds"`
	Workloads  []result `json:"workloads"`
}

// result is one workload's metrics. Runs counts every measured rep,
// traced ones included; the end-to-end metrics' n counts the untraced
// reps they summarize.
type result struct {
	Workload   string   `json:"workload"`
	HorizonSim string   `json:"horizon_sim"`
	Runs       int      `json:"runs"`
	FailedRuns int      `json:"failed_runs"`
	Failures   []string `json:"failures,omitempty"`
	Digest     string   `json:"digest"`
	// RunS is the median host wall time of the untraced run spans.
	RunS     float64         `json:"run_s_p50"`
	EndToEnd map[string]stat `json:"end_to_end,omitempty"`
	PerLayer map[string]stat `json:"per_layer,omitempty"`
}

// printResult writes one workload's metrics as a table, each metric by
// name and unit, labelled host (host time or memory) or sim (a count of
// simulated behaviour).
func printResult(w io.Writer, r result) {
	fmt.Fprintf(w, "== %s: horizon %s simulated in %.3g s host (median), %d runs, %d failed, digest %s\n",
		r.Workload, r.HorizonSim, r.RunS, r.Runs, r.FailedRuns, r.Digest)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	if len(r.EndToEnd) > 0 {
		fmt.Fprintln(tw, "end-to-end\tclock\tvalue\tp25\tp50\tp75\tn\tunit\t")
		for _, m := range endToEnd {
			s := r.EndToEnd[m.name]
			fmt.Fprintf(tw, "%s\thost\t%.6g\t%.6g\t%.6g\t%.6g\t%d\t%s\t\n", m.name, s.Value, s.P25, s.P50, s.P75, s.N, s.Unit)
		}
	}
	if len(r.PerLayer) > 0 {
		fmt.Fprintln(tw, "per-layer\tclock\tvalue\t\t\t\t\tunit\t")
		for _, m := range perLayer {
			s := r.PerLayer[m.name]
			clock, value := "host", fmt.Sprintf("%.6g", s.Value)
			if m.sim {
				clock, value = "sim", fmt.Sprintf("%.10g", s.Value)
			}
			unit := s.Unit
			if b, ok := bases[m.name]; ok {
				unit += fmt.Sprintf(" of %.0f %s", r.PerLayer[b].Value, b)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t\t\t\t\t%s\t\n", m.name, clock, value, unit)
		}
	}
	tw.Flush()
}

func writeReport(dir string, rep report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "bench.json"), append(b, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compare prints, for each workload in both reports and each end-to-end
// metric, both sides' values and quartiles and a verdict: "unresolved"
// when the uncertainty of either side's value exceeds the metric's
// compareBound (the reps are too noisy to tell), else "regression" when
// the change's value is worse than the parent's by more than that
// bound, else "ok". The reports are expected to share a seed. It then
// says whether the simulated behaviour is identical, judged on the exact
// per-layer counts rather than the digest hash, so a re-pinned digest
// mix alone does not count as a change.
func compare(w io.Writer, parent, change report) {
	byName := make(map[string]result, len(parent.Workloads))
	for _, r := range parent.Workloads {
		byName[r.Workload] = r
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent\tp25\tp50\tp75\tchange\tp25\tp50\tp75\tdelta\t±\tbound\tverdict")
	var diffs []string
	regressions := 0
	for _, c := range change.Workloads {
		p, ok := byName[c.Workload]
		if !ok {
			fmt.Fprintf(tw, "%s\t(not in parent)\n", c.Workload)
			continue
		}
		for _, m := range endToEnd {
			ps, cs := p.EndToEnd[m.name], c.EndToEnd[m.name]
			delta := 0.0
			if ps.Value != 0 {
				delta = (cs.Value - ps.Value) / ps.Value
			}
			worse := delta
			if m.better == "higher" {
				worse = -delta
			}
			noise := max(uncertainty(ps, m.q), uncertainty(cs, m.q))
			verdict := "ok"
			switch {
			case noise > m.compareBound:
				verdict = "unresolved"
			case worse > m.compareBound:
				verdict = "regression"
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				c.Workload, m.name, ps.Value, ps.P25, ps.P50, ps.P75, cs.Value, cs.P25, cs.P50, cs.P75,
				100*delta, 100*noise, 100*m.compareBound, verdict)
		}
		for _, m := range perLayer {
			if !m.sim {
				continue
			}
			if pv, cv := p.PerLayer[m.name].Value, c.PerLayer[m.name].Value; pv != cv {
				diffs = append(diffs, fmt.Sprintf("%s %s: %.6g -> %.6g", c.Workload, m.name, pv, cv))
			}
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d regressions\n", regressions)
	if len(diffs) == 0 {
		fmt.Fprintln(w, "simulated behaviour identical")
		return
	}
	fmt.Fprintf(w, "simulated behaviour differs in %d counts:\n", len(diffs))
	for _, d := range diffs {
		fmt.Fprintln(w, "  "+d)
	}
}

// uncertainty is how far a stat's value, the q-quantile of its reps,
// may be off, as a share of it. For a median it is the half-width of a
// box plot's notch, 1.58·IQR/√n, roughly a 95% interval. For the
// fastest rep (q = 0) it is the gap up to the p25: how far above the
// fastest the fast quarter of the reps reaches.
func uncertainty(s stat, q float64) float64 {
	if s.Value == 0 || s.N == 0 {
		return 0
	}
	if q == 0 {
		return (s.P25 - s.Value) / s.Value
	}
	return 1.58 * (s.P75 - s.P25) / math.Sqrt(float64(s.N)) / s.Value
}
