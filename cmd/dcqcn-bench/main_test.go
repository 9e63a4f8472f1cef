package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dcqcn/internal/simtime"
)

// tinyWorkloads returns the workloads at horizons short enough for a
// smoke test, each still long enough for its own checks to hold (PAUSE
// reaches the spines of pfc-storm-recorded after about 1 ms).
func tinyWorkloads() []workload {
	horizon := map[string]simtime.Duration{
		"clos-incast":        200 * simtime.Microsecond,
		"clos-benchmark":     200 * simtime.Microsecond,
		"pfc-storm-recorded": 1500 * simtime.Microsecond,
		"hybrid-1m":          2 * simtime.Millisecond,
	}
	ws := workloads()
	for i := range ws {
		ws[i].horizon = horizon[ws[i].name]
	}
	return ws
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specJSON `json:"end_to_end"`
	PerLayer []specJSON `json:"per_layer"`
}

type specJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

func specsJSON(specs []metricSpec) []specJSON {
	out := make([]specJSON, len(specs))
	for i, m := range specs {
		out[i] = specJSON{Name: m.name, Unit: m.unit, Better: m.better, Bound: m.bound}
	}
	return out
}

// TestBenchmarkFileMatchesBinary keeps BENCHMARK.json equal to what the
// binary runs and emits.
func TestBenchmarkFileMatchesBinary(t *testing.T) {
	f := readBenchmarkFile(t)
	if want := []string{"bash", "cmd/dcqcn-bench/run.sh"}; !reflect.DeepEqual(f.Command, want) {
		t.Errorf("command = %q, want %q", f.Command, want)
	}
	if want := []string{"cmd/dcqcn-bench"}; !reflect.DeepEqual(f.Paths, want) {
		t.Errorf("paths = %q, want %q", f.Paths, want)
	}
	ws := workloads()
	if len(f.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, binary has %d", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, binary has %q: %q", i, f.Workloads[i], w.name, w.why)
		}
	}
	if got, want := f.EndToEnd, specsJSON(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end = %+v\nbinary emits %+v", got, want)
	}
	if got, want := f.PerLayer, specsJSON(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer = %+v\nbinary emits %+v", got, want)
	}
	maxBound := 0.0
	for _, m := range endToEnd {
		if m.name != "setup_s" {
			maxBound = max(maxBound, m.bound)
		}
	}
	for _, m := range endToEnd {
		if m.name == "setup_s" && m.bound <= maxBound {
			t.Errorf("setup_s bound %v must be the largest (others reach %v)", m.bound, maxBound)
		}
	}
}

// TestSmoke runs the full suite on tiny horizons and checks the report:
// every declared metric present with its unit in the table and the
// JSON, and no failed rep.
func TestSmoke(t *testing.T) {
	var table bytes.Buffer
	rep := suite(&table, tinyWorkloads(), 1, 1, 1)
	dir := t.TempDir()
	if err := writeReport(dir, rep); err != nil {
		t.Fatal(err)
	}
	got, err := readReport(filepath.Join(dir, "bench.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Workloads) != len(workloads()) || got.GoMaxProcs < 1 || got.NumCPU < 1 || got.GoVersion == "" {
		t.Fatalf("report header incomplete: %+v", got)
	}
	lines := strings.Split(table.String(), "\n")
	for _, r := range got.Workloads {
		if r.FailedRuns != 0 || len(r.Failures) != 0 || r.Runs == 0 {
			t.Errorf("%s: %d of %d runs failed: %q", r.Workload, r.FailedRuns, r.Runs, r.Failures)
		}
		for _, group := range []struct {
			specs []metricSpec
			got   map[string]stat
		}{{endToEnd, r.EndToEnd}, {perLayer, r.PerLayer}} {
			for _, m := range group.specs {
				if s, ok := group.got[m.name]; !ok || s.Unit != m.unit {
					t.Errorf("%s: bench.json has %s = %+v, want unit %q", r.Workload, m.name, s, m.unit)
				}
				if !tableHas(lines, r.Workload, m.name, m.unit) {
					t.Errorf("%s: table has no %s row with unit %q", r.Workload, m.name, m.unit)
				}
			}
		}
		var sum float64
		for _, l := range layers {
			sum += r.PerLayer[l+".cpu_share"].Value
		}
		if d := sum - 1; d > 0.001 || d < -0.001 {
			t.Errorf("%s: cpu shares sum to %v", r.Workload, sum)
		}
	}
}

// tableHas reports whether the printed section of workload has a row
// for metric whose last column is unit.
func tableHas(lines []string, workload, metric, unit string) bool {
	in := false
	for _, l := range lines {
		if strings.HasPrefix(l, "== ") {
			in = strings.HasPrefix(l, "== "+workload+":")
			continue
		}
		f := strings.Fields(l)
		if in && len(f) > 0 && f[0] == metric && slices.Contains(f[1:], unit) {
			return true
		}
	}
	return false
}

// TestObservationIsPassive checks that neither slicing the run span
// nor profiling it changes the simulation.
func TestObservationIsPassive(t *testing.T) {
	ws := tinyWorkloads()
	for i := range ws {
		w := &ws[i]
		sliced := runRep(w, 2, nil, false)
		single := runRep(w, 2, nil, true)
		var prof bytes.Buffer
		traced := runRep(w, 2, &prof, false)
		for _, r := range []rep{sliced, single, traced} {
			if r.failure != "" {
				t.Fatalf("%s: %s", w.name, r.failure)
			}
		}
		if sliced.digest != single.digest {
			t.Errorf("%s: sliced digest %v, single Run %v", w.name, sliced.digest, single.digest)
		}
		if sliced.digest != traced.digest || sliced.counts != traced.counts {
			t.Errorf("%s: untraced digest %v, traced %v", w.name, sliced.digest, traced.digest)
		}
	}
}

// TestSingleResultLine checks the single-workload mode's last output
// line: exactly the four keys, and every end-to-end (trace 0) or
// per-layer (trace 1) metric with its unit.
func TestSingleResultLine(t *testing.T) {
	w := tinyWorkloads()[3]
	for _, trace := range []bool{false, true} {
		var out bytes.Buffer
		single(&out, w, 1, 200*time.Millisecond, trace)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace=%v: last line: %v", trace, err)
		}
		var res struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace=%v: result line %s", trace, lines[len(lines)-1])
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("trace=%v: metric %s = %+v, want unit %q", trace, m.name, got, m.unit)
			}
		}
	}
}

// TestCompare checks -compare's verdicts against the same-seed bounds:
// 15% on the fastest rep, whose uncertainty is its gap to the p25, and
// 5% on the median live heap.
func TestCompare(t *testing.T) {
	mk := func(run, runP25, heap, events float64) result {
		r := result{Workload: "w", EndToEnd: map[string]stat{}, PerLayer: map[string]stat{}}
		for _, m := range endToEnd {
			r.EndToEnd[m.name] = stat{Value: 1, Unit: m.unit, P25: 1, P75: 1, N: 40}
		}
		r.EndToEnd["run_ns_per_event_min"] = stat{Value: run, Unit: "ns", P25: runP25, P50: runP25 + 1, P75: runP25 + 2, N: 40}
		r.EndToEnd["heap_live_mb"] = stat{Value: heap, Unit: "MB", P25: heap, P50: heap, P75: heap, N: 40}
		for _, m := range perLayer {
			r.PerLayer[m.name] = stat{Value: 1, Unit: m.unit}
		}
		r.PerLayer["engine.events"] = stat{Value: events, Unit: "count"}
		return r
	}
	cases := []struct {
		name, metric  string
		parent, chg   result
		verdict, sims string
	}{
		{"same", "run_ns_per_event_min", mk(100, 101, 5, 7), mk(108, 109, 5, 7), " ok\n", "simulated behaviour identical"},
		{"slower", "run_ns_per_event_min", mk(100, 101, 5, 7), mk(120, 121, 5, 7), " regression\n", "simulated behaviour identical"},
		{"noisy", "run_ns_per_event_min", mk(100, 120, 5, 7), mk(130, 131, 5, 7), " unresolved\n", "simulated behaviour identical"},
		{"heap-same", "heap_live_mb", mk(100, 101, 5, 7), mk(100, 101, 5.2, 7), " ok\n", "simulated behaviour identical"},
		{"heap-grew", "heap_live_mb", mk(100, 101, 5, 7), mk(100, 101, 5.3, 7), " regression\n", "simulated behaviour identical"},
		{"resimulated", "run_ns_per_event_min", mk(100, 101, 5, 7), mk(100, 101, 5, 8), " ok\n", "engine.events: 7 -> 8"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		compare(&out, report{Workloads: []result{c.parent}}, report{Workloads: []result{c.chg}})
		var row string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, c.metric) {
				row = l + "\n"
			}
		}
		if !strings.HasSuffix(row, c.verdict) || !strings.Contains(out.String(), c.sims) {
			t.Errorf("%s: got\n%s", c.name, out.String())
		}
	}
}
