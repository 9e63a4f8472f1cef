// Command dcqcn-lint is the determinism- and physics-contract
// multichecker: it runs the 11 internal/lint analyzers (walltime,
// globalrand, maporder, floateq, simtime, noconc, eventpast, acctfield,
// hotchain, ccability, hookpassive) over the requested packages and
// exits non-zero on findings. `make lint` wires it into `make check`,
// so contract violations fail before any simulation runs. The
// interprocedural analyzers share one call-graph summary per
// invocation (internal/lint/callgraph).
//
// Usage:
//
//	dcqcn-lint [-json|-sarif] [-config file] [-analyzers a,b] [packages...]
//	dcqcn-lint -escape [-update] [-escape-golden file]
//
// Packages default to ./... . The optional config file holds
// per-package suppressions with recorded reasons:
//
//	{"suppressions": [
//	  {"analyzer": "floateq", "package": "dcqcn/internal/foo",
//	   "reason": "compares quantized values produced by the same expression"}
//	]}
//
// A suppression that no longer silences anything is reported as stale
// (exit 3): every entry in lint.json must keep paying its way.
//
// -escape switches to the escape-analysis audit: the compiler's heap
// decisions inside every //hot:path function of the library packages
// (internal/escape, escape.Scope) are diffed against the committed
// escape.golden; a new escape in the event loop fails with a
// site-level diff. -update rewrites the golden after an intentional
// change.
//
// Exit status: 0 clean, 1 findings or escape diff, 2 usage or analysis
// failure, 3 stale suppressions (and no findings).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dcqcn/internal/escape"
	"dcqcn/internal/lint"
	"dcqcn/internal/lint/analysis"
	"dcqcn/internal/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("dcqcn-lint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log (for code-scanning upload) instead of text")
	configPath := fs.String("config", "", "suppression config file (JSON); default: lint.json beside go.mod if present")
	names := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	escapeMode := fs.Bool("escape", false, "audit compiler escape decisions in //hot:path functions against the golden")
	escapeUpdate := fs.Bool("update", false, "with -escape: rewrite the golden from the current tree")
	escapeGolden := fs.String("escape-golden", "escape.golden", "with -escape: golden file to diff against")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dcqcn-lint [flags] [packages...]\n       dcqcn-lint -escape [-update]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(fs.Output(), "  %-11s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(fs.Output(), "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "dcqcn-lint: -json and -sarif are mutually exclusive")
		return 2
	}
	if *escapeMode {
		return runEscape(*escapeGolden, *escapeUpdate)
	}
	if *escapeUpdate {
		fmt.Fprintln(os.Stderr, "dcqcn-lint: -update requires -escape")
		return 2
	}

	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcqcn-lint:", err)
		return 2
	}

	cfg, err := loadConfig(*configPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcqcn-lint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcqcn-lint:", err)
		return 2
	}

	findings, stale, err := lint.RunWithStale(pkgs, analyzers, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcqcn-lint:", err)
		return 2
	}

	switch {
	case *sarifOut:
		root, err := os.Getwd()
		if err != nil {
			root = ""
		}
		if err := lint.WriteSARIF(os.Stdout, root, analyzers, findings); err != nil {
			fmt.Fprintln(os.Stderr, "dcqcn-lint:", err)
			return 2
		}
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "dcqcn-lint:", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	for _, s := range stale {
		fmt.Fprintf(os.Stderr, "dcqcn-lint: stale suppression: %s on %s silences nothing (reason was: %s) — remove it from lint.json\n",
			s.Analyzer, s.Package, s.Reason)
	}
	if len(findings) > 0 {
		if !*jsonOut && !*sarifOut {
			fmt.Fprintf(os.Stderr, "dcqcn-lint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	if len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "dcqcn-lint: %d stale suppression(s)\n", len(stale))
		return 3
	}
	return 0
}

// runEscape audits the compiler's escape decisions in the //hot:path
// functions of escape.Scope against the committed golden (or rewrites
// it).
func runEscape(goldenPath string, update bool) int {
	got, err := escape.Analyze(".", escape.Scope)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcqcn-lint:", err)
		return 2
	}
	if update {
		if err := os.WriteFile(goldenPath, []byte(got.Format()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dcqcn-lint:", err)
			return 2
		}
		fmt.Printf("dcqcn-lint: wrote %s (%d hot-path escape sites)\n", goldenPath, len(got.Sites))
		return 0
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcqcn-lint: %v (run dcqcn-lint -escape -update to create it)\n", err)
		return 2
	}
	golden, err := escape.Parse(string(data))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcqcn-lint:", err)
		return 2
	}
	diffs := escape.Compare(golden, got)
	for _, d := range diffs {
		fmt.Println(d)
	}
	if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "dcqcn-lint: escape audit: %d divergence(s) from %s\n", len(diffs), goldenPath)
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -analyzers flag against the registry.
func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	all := lint.All()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

// loadConfig reads the suppression config: the explicit -config path if
// given (must exist), otherwise lint.json in the current directory if
// present, otherwise none.
func loadConfig(path string) (*lint.Config, error) {
	if path != "" {
		return lint.LoadConfig(path)
	}
	if _, err := os.Stat("lint.json"); err == nil {
		return lint.LoadConfig("lint.json")
	}
	return nil, nil
}
