// Command dcqcn-lint is the contract multichecker: it runs the 7
// internal/lint analyzers (walltime, globalrand, maporder, floateq,
// simtime, noconc, hotchain) over the requested packages, one package
// at a time, and exits non-zero on findings. `make lint` wires it into
// `make check`, so contract violations fail before any simulation
// runs.
//
// Usage:
//
//	dcqcn-lint [-json] [packages...]
//	dcqcn-lint -escape [-update]
//
// Packages default to ./... . A finding is waived in the source, on
// its line or the line above it, with
//
//	//lint:allow <analyzer> <reason>
//
// A waiver without a reason is reported in place of the finding it
// covers. A waiver naming an unknown analyzer is a finding, and so is
// a stale one: its analyzer ran over its package and it silenced
// nothing.
//
// -escape switches to the escape-analysis audit: the compiler's heap
// decisions inside every //hot:path function of the library packages
// (internal/escape, escape.Scope) are diffed against the committed
// escape.golden; a new escape in the event loop fails with a
// site-level diff. -update rewrites the golden after an intentional
// change.
//
// Exit status: 0 clean, 1 findings or escape diff, 2 usage or analysis
// failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dcqcn/internal/escape"
	"dcqcn/internal/lint"
	"dcqcn/internal/lint/load"
)

// goldenPath is the committed escape audit, beside go.mod.
const goldenPath = "escape.golden"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("dcqcn-lint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	escapeMode := fs.Bool("escape", false, "audit compiler escape decisions in //hot:path functions against "+goldenPath)
	escapeUpdate := fs.Bool("update", false, "with -escape: rewrite "+goldenPath+" from the current tree")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dcqcn-lint [-json] [packages...]\n       dcqcn-lint -escape [-update]\n\n"+
			"Waive one finding on its line or the line above with //lint:allow <analyzer> <reason>.\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(fs.Output(), "  %-11s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(fs.Output(), "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *escapeMode {
		return runEscape(*escapeUpdate)
	}
	if *escapeUpdate {
		fmt.Fprintln(os.Stderr, "dcqcn-lint: -update requires -escape")
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

	findings, err := lint.Run(pkgs, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcqcn-lint:", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "dcqcn-lint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "dcqcn-lint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// runEscape audits the compiler's escape decisions in the //hot:path
// functions of escape.Scope against the committed golden (or rewrites
// it).
func runEscape(update bool) int {
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
