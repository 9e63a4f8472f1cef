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
		"noconc", "eventpast", "acctfield",
		"hotchain",
		"ccability", "hookpassive",
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

// TestCcabilityNamesMissingMethod pins the shape of the capability
// mismatch diagnostic: it must name the exact reactor method the
// controller fails to implement, so the finding is actionable without
// opening the interface definition.
func TestCcabilityNamesMissingMethod(t *testing.T) {
	findings := runOn(t, nil, []*analysis.Analyzer{lint.Ccability}, "./testdata/src/ccability/cc")
	var ghost []string
	for _, f := range findings {
		if strings.Contains(f.Message, "Ghost declares CapRTT") {
			ghost = append(ghost, f.Message)
		}
	}
	if len(ghost) != 1 {
		t.Fatalf("want exactly one Ghost capability finding, got %d: %v", len(ghost), ghost)
	}
	if !strings.Contains(ghost[0], "missing method OnRTT") {
		t.Errorf("Ghost diagnostic does not name the missing reactor method OnRTT: %s", ghost[0])
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

// runOn loads one fixture package and runs the analyzers over it with
// the given config, returning the findings.
func runOn(t *testing.T, cfg *lint.Config, analyzers []*analysis.Analyzer, pattern string) []lint.Finding {
	t.Helper()
	pkgs, err := load.Packages(".", pattern)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run(pkgs, analyzers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// TestRunSuppression checks the per-package suppression path end to
// end: the floateq fixture has findings without config and none with a
// matching suppression, while an unrelated suppression changes nothing.
func TestRunSuppression(t *testing.T) {
	const fixture = "./testdata/src/floateq/a"
	const fixturePath = "dcqcn/internal/lint/testdata/src/floateq/a"

	plain := runOn(t, nil, lint.All(), fixture)
	if len(plain) == 0 {
		t.Fatal("expected findings in floateq fixture without suppression")
	}
	for _, f := range plain {
		if f.Analyzer != "floateq" {
			t.Errorf("unexpected analyzer %q in floateq fixture: %s", f.Analyzer, f)
		}
		if f.Package != fixturePath {
			t.Errorf("finding attributed to %q, want %q", f.Package, fixturePath)
		}
	}

	suppressed := runOn(t, &lint.Config{Suppressions: []lint.Suppression{
		{Analyzer: "floateq", Package: fixturePath, Reason: "test"},
	}}, lint.All(), fixture)
	if len(suppressed) != 0 {
		t.Fatalf("suppression left %d findings: %v", len(suppressed), suppressed)
	}

	unrelated := runOn(t, &lint.Config{Suppressions: []lint.Suppression{
		{Analyzer: "maporder", Package: fixturePath, Reason: "test"},
		{Analyzer: "floateq", Package: "dcqcn/internal/other", Reason: "test"},
	}}, lint.All(), fixture)
	if len(unrelated) != len(plain) {
		t.Fatalf("unrelated suppressions changed findings: %d vs %d", len(unrelated), len(plain))
	}
}

// TestRunWithStale pins the stale-suppression contract: a suppression
// that silences real findings is earning its keep, one that silences
// nothing in a run that judged it is stale, and suppressions for
// packages (or analyzers) outside the run are never judged.
func TestRunWithStale(t *testing.T) {
	const fixture = "./testdata/src/floateq/a"
	const fixturePath = "dcqcn/internal/lint/testdata/src/floateq/a"

	pkgs, err := load.Packages(".", fixture)
	if err != nil {
		t.Fatal(err)
	}

	// Earning its keep: the floateq suppression on its own fixture.
	cfg := &lint.Config{Suppressions: []lint.Suppression{
		{Analyzer: "floateq", Package: fixturePath, Reason: "test"},
	}}
	findings, stale, err := lint.RunWithStale(pkgs, lint.All(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("suppression left %d findings", len(findings))
	}
	if len(stale) != 0 {
		t.Fatalf("working suppression reported stale: %v", stale)
	}

	// Stale: maporder never fires in the floateq fixture, so its
	// suppression silences nothing.
	cfg = &lint.Config{Suppressions: []lint.Suppression{
		{Analyzer: "maporder", Package: fixturePath, Reason: "test"},
	}}
	findings, stale, err = lint.RunWithStale(pkgs, lint.All(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("floateq findings disappeared under an unrelated suppression")
	}
	if len(stale) != 1 || stale[0].Analyzer != "maporder" {
		t.Fatalf("want the maporder suppression reported stale, got %v", stale)
	}

	// Not judged: the package is not part of this run, so no verdict —
	// subset invocations must not flag other packages' suppressions.
	cfg = &lint.Config{Suppressions: []lint.Suppression{
		{Analyzer: "floateq", Package: "dcqcn/internal/other", Reason: "test"},
	}}
	if _, stale, err = lint.RunWithStale(pkgs, lint.All(), cfg); err != nil {
		t.Fatal(err)
	} else if len(stale) != 0 {
		t.Fatalf("unloaded package's suppression judged stale: %v", stale)
	}

	// Not judged either: the analyzer named by the suppression was not
	// part of the run.
	cfg = &lint.Config{Suppressions: []lint.Suppression{
		{Analyzer: "floateq", Package: fixturePath, Reason: "test"},
	}}
	if _, stale, err = lint.RunWithStale(pkgs, []*analysis.Analyzer{lint.Maporder}, cfg); err != nil {
		t.Fatal(err)
	} else if len(stale) != 0 {
		t.Fatalf("unrun analyzer's suppression judged stale: %v", stale)
	}
}

// TestHotFamilySuppression checks suppression matching for the
// hot-path analyzer family end to end over its own fixture: the
// fixture only yields findings from its analyzer, and a matching
// suppression silences all of them (and is therefore not stale).
func TestHotFamilySuppression(t *testing.T) {
	cases := []struct {
		analyzer string
		fixture  string
	}{
		{"hotchain", "hotchain/a"},
	}
	for _, c := range cases {
		fixture := "./testdata/src/" + c.fixture
		fixturePath := "dcqcn/internal/lint/testdata/src/" + c.fixture

		plain := runOn(t, nil, lint.All(), fixture)
		if len(plain) == 0 {
			t.Fatalf("%s: fixture yields no findings", c.analyzer)
		}
		for _, f := range plain {
			if f.Analyzer != c.analyzer {
				t.Errorf("%s fixture produced %q finding: %s", c.analyzer, f.Analyzer, f)
			}
			if f.Package != fixturePath {
				t.Errorf("finding attributed to %q, want %q", f.Package, fixturePath)
			}
		}

		pkgs, err := load.Packages(".", fixture)
		if err != nil {
			t.Fatal(err)
		}
		cfg := &lint.Config{Suppressions: []lint.Suppression{
			{Analyzer: c.analyzer, Package: fixturePath, Reason: "test"},
		}}
		findings, stale, err := lint.RunWithStale(pkgs, lint.All(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) != 0 {
			t.Errorf("%s: suppression left %d findings: %v", c.analyzer, len(findings), findings)
		}
		if len(stale) != 0 {
			t.Errorf("%s: working suppression reported stale: %v", c.analyzer, stale)
		}
	}
}

// TestFindingJSONShape pins the -json wire format the CI artifact
// consumes: analyzer, package, pos, message — nothing else, nothing
// renamed.
func TestFindingJSONShape(t *testing.T) {
	findings := runOn(t, nil, []*analysis.Analyzer{lint.Walltime}, "./testdata/src/walltime/model")
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

// TestWriteSARIF pins the SARIF 2.1.0 wire shape code scanning
// consumes: version, tool name, one rule per analyzer, and per-result
// ruleId, level, message and repository-relative location.
func TestWriteSARIF(t *testing.T) {
	findings := runOn(t, nil, []*analysis.Analyzer{lint.Walltime}, "./testdata/src/walltime/model")
	if len(findings) == 0 {
		t.Fatal("no walltime findings to render")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := lint.WriteSARIF(&buf, cwd, lint.All(), findings); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q, %d runs; want 2.1.0 and 1 run", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "dcqcn-lint" {
		t.Errorf("tool name %q, want dcqcn-lint", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(lint.All()) {
		t.Errorf("%d rules, want one per analyzer (%d)", len(run.Tool.Driver.Rules), len(lint.All()))
	}
	if len(run.Results) != len(findings) {
		t.Fatalf("%d results, want %d", len(run.Results), len(findings))
	}
	r := run.Results[0]
	if r.RuleID != "walltime" || r.Level != "error" || r.Message.Text == "" {
		t.Errorf("result shape wrong: %+v", r)
	}
	loc := r.Locations[0].PhysicalLocation
	if strings.HasPrefix(loc.ArtifactLocation.URI, "/") || strings.Contains(loc.ArtifactLocation.URI, `\`) {
		t.Errorf("location URI %q is not repository-relative slash form", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine <= 0 {
		t.Errorf("startLine %d, want positive", loc.Region.StartLine)
	}
}

func TestLoadConfigValidation(t *testing.T) {
	write := func(t *testing.T, content string) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), "lint.json")
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	good := `{"suppressions":[{"analyzer":"floateq","package":"dcqcn/internal/stats","reason":"exact comparisons on stored samples"}]}`
	cfg, err := lint.LoadConfig(write(t, good))
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if len(cfg.Suppressions) != 1 {
		t.Fatalf("got %d suppressions, want 1", len(cfg.Suppressions))
	}

	bad := map[string]string{
		"unknown analyzer": `{"suppressions":[{"analyzer":"nosuch","package":"p","reason":"r"}]}`,
		"missing package":  `{"suppressions":[{"analyzer":"floateq","reason":"r"}]}`,
		"missing reason":   `{"suppressions":[{"analyzer":"floateq","package":"p"}]}`,
		"malformed json":   `{"suppressions":`,
	}
	for name, content := range bad {
		if _, err := lint.LoadConfig(write(t, content)); err == nil {
			t.Errorf("%s: config accepted, want error", name)
		}
	}
}

// TestRepoConfigValid keeps the checked-in lint.json loadable and every
// suppression reasoned, so `make lint` cannot be silently misconfigured.
func TestRepoConfigValid(t *testing.T) {
	cfg, err := lint.LoadConfig("../../lint.json")
	if err != nil {
		t.Fatalf("repo lint.json invalid: %v", err)
	}
	for _, s := range cfg.Suppressions {
		if !strings.HasPrefix(s.Package, "dcqcn/") {
			t.Errorf("suppression for %q names a package outside the module", s.Package)
		}
	}
}
