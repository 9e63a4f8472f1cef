package lint_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcqcn/internal/lint"
	"dcqcn/internal/lint/analysis"
	"dcqcn/internal/lint/load"
)

func TestAllStableOrder(t *testing.T) {
	want := []string{
		"walltime", "globalrand", "maporder", "floateq", "simtime",
		"noconc",
		"hotchain",
	}
	all := lint.All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run", a.Name)
		}
	}
}

// TestFixtureCoverage fails when an analyzer in All() has no fixture
// directory under testdata/src — every analyzer must ship at least one
// flagged and one blessed case, and an empty fixture dir cannot hold
// either. The simtime analyzer's fixture lives under "simtimecheck"
// (the bare name would collide with the real simtime package on the
// fixture GOPATH), hence the name+"check" fallback.
func TestFixtureCoverage(t *testing.T) {
	for _, a := range lint.All() {
		found := false
		for _, dir := range []string{a.Name, a.Name + "check"} {
			st, err := os.Stat(filepath.Join("testdata", "src", dir))
			if err == nil && st.IsDir() {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("analyzer %q has no fixture directory testdata/src/%s (or %scheck)",
				a.Name, a.Name, a.Name)
		}
	}
}

func TestExemptFromModelRules(t *testing.T) {
	cases := []struct {
		path   string
		exempt bool
	}{
		{"dcqcn/internal/engine", false},
		{"dcqcn/internal/experiments", false},
		{"dcqcn/internal/harness", true},
		{"dcqcn/cmd/dcqcn-sweep", true},
		{"dcqcn/internal/lint/testdata/src/walltime/model", false},
		{"dcqcn/internal/lint/testdata/src/walltime/harness", true},
		{"dcqcn/internal/lint/testdata/src/walltime/cmd/tool", true},
		// The exemption matches whole path elements, not substrings.
		{"dcqcn/internal/harnessutil", false},
		{"dcqcn/internal/cmdparse", false},
	}
	for _, c := range cases {
		if got := lint.ExemptFromModelRules(c.path); got != c.exempt {
			t.Errorf("ExemptFromModelRules(%q) = %v, want %v", c.path, got, c.exempt)
		}
	}
}

// runOn loads one fixture package and runs the analyzers over it
// through lint.Run, returning the findings.
func runOn(t *testing.T, analyzers []*analysis.Analyzer, pattern string) []lint.Finding {
	t.Helper()
	pkgs, err := load.Packages(".", pattern)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run(pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

const allowFixture = "./testdata/src/allow/a"

// allowLine returns the line number of the one line of the waiver
// fixture that contains text.
func allowLine(t *testing.T, text string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(allowFixture, "a.go"))
	if err != nil {
		t.Fatal(err)
	}
	line := 0
	for i, l := range strings.Split(string(data), "\n") {
		if strings.Contains(l, text) {
			if line != 0 {
				t.Fatalf("waiver fixture has %q on lines %d and %d", text, line, i+1)
			}
			line = i + 1
		}
	}
	if line == 0 {
		t.Fatalf("waiver fixture has no line containing %q", text)
	}
	return line
}

// findingsAt returns the findings reported on one line.
func findingsAt(findings []lint.Finding, line int) []lint.Finding {
	var out []lint.Finding
	for _, f := range findings {
		if f.Position.Line == line {
			out = append(out, f)
		}
	}
	return out
}

var (
	floateqOnly        = []*analysis.Analyzer{lint.Floateq}
	floateqAndMaporder = []*analysis.Analyzer{lint.Floateq, lint.Maporder}
)

// TestRunSuppression pins what a //lint:allow waiver does to the
// finding it covers, on the same line or the line above: a reasoned
// waiver silences it, a reasonless one is reported in its place, and a
// waiver naming another analyzer leaves it.
func TestRunSuppression(t *testing.T) {
	for _, analyzers := range [][]*analysis.Analyzer{floateqOnly, floateqAndMaporder} {
		findings := runOn(t, analyzers, allowFixture)
		for _, code := range []string{"return a == b", "return c == d"} {
			if got := findingsAt(findings, allowLine(t, code)); len(got) != 0 {
				t.Errorf("%q: reasoned waiver left %v", code, got)
			}
		}
		got := findingsAt(findings, allowLine(t, "return e == f"))
		if len(got) != 1 || got[0].Analyzer != "floateq" || !strings.Contains(got[0].Message, "without a reason") {
			t.Errorf("reasonless waiver: got %v, want one floateq finding saying \"without a reason\"", got)
		}
		got = findingsAt(findings, allowLine(t, "return g == h"))
		if len(got) != 1 || got[0].Analyzer != "floateq" || strings.Contains(got[0].Message, "waiver") {
			t.Errorf("waiver naming maporder: got %v, want the floateq finding untouched", got)
		}
	}
}

// TestRunWithStale pins when a waiver is itself a finding, at the
// directive: when it is stale (its analyzer ran over its package and
// it silenced nothing) and when it names an unknown analyzer. A waiver
// whose analyzer did not run is not judged.
func TestRunWithStale(t *testing.T) {
	staleLine := allowLine(t, "integers compare exactly")
	unknownLine := allowLine(t, "//lint:allow nosuch")
	maporderLine := allowLine(t, "//lint:allow maporder")

	findings := runOn(t, floateqOnly, allowFixture)
	if got := findingsAt(findings, staleLine); len(got) != 1 || !strings.Contains(got[0].Message, "stale") {
		t.Errorf("stale floateq waiver: got %v, want one stale finding", got)
	}
	if got := findingsAt(findings, unknownLine); len(got) != 1 || !strings.Contains(got[0].Message, `unknown analyzer "nosuch"`) {
		t.Errorf("unknown analyzer: got %v, want one finding naming it", got)
	}
	if got := findingsAt(findings, maporderLine); len(got) != 0 {
		t.Errorf("maporder did not run, yet its waiver was judged: %v", got)
	}
	// The line-above waivers that did their job are not stale.
	if got := findingsAt(findings, allowLine(t, "return c == d")-1); len(got) != 0 {
		t.Errorf("working waiver judged: %v", got)
	}

	findings = runOn(t, floateqAndMaporder, allowFixture)
	if got := findingsAt(findings, maporderLine); len(got) != 1 || !strings.Contains(got[0].Message, "stale") {
		t.Errorf("maporder ran and its waiver silenced nothing: got %v, want one stale finding", got)
	}
}

// TestHotFamilySuppression checks the waiver end to end for the
// hot-path family: the hotchain finding is silenced, and the waiver is
// not stale, so hotchain did flag the line it covers.
func TestHotFamilySuppression(t *testing.T) {
	findings := runOn(t, []*analysis.Analyzer{lint.Hotchain}, allowFixture)
	install := allowLine(t, "p.OnEvent = fn")
	for _, line := range []int{install - 1, install} {
		if got := findingsAt(findings, line); len(got) != 0 {
			t.Errorf("line %d: %v", line, got)
		}
	}
}

// TestFindingJSONShape pins the -json wire format the CI artifact
// consumes: analyzer, package, pos, message — nothing else, nothing
// renamed.
func TestFindingJSONShape(t *testing.T) {
	findings := runOn(t, []*analysis.Analyzer{lint.Walltime}, "./testdata/src/walltime/model")
	if len(findings) == 0 {
		t.Fatal("no walltime findings to marshal")
	}
	data, err := json.Marshal(findings[0])
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	want := []string{"analyzer", "package", "pos", "message"}
	if len(m) != len(want) {
		t.Fatalf("finding JSON has %d keys, want %d: %s", len(m), len(want), data)
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Errorf("finding JSON missing key %q: %s", k, data)
		}
	}
	if m["analyzer"] != "walltime" {
		t.Errorf("analyzer = %v, want walltime", m["analyzer"])
	}
}
