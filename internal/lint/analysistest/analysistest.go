// Package analysistest runs an analyzer over fixture packages through
// the lint driver (lint.Run, so fixtures see //lint:allow waivers exactly
// as `make lint` does) and checks its findings against expectations
// written in the fixtures themselves, in the style of
// golang.org/x/tools/go/analysis/analysistest:
//
//	time.Now() // want `wall-clock time\.Now`
//
// A `// want` comment holds one or more double-quoted regular
// expressions; each must match a finding reported on that line, and
// every finding must be matched by some expectation. Fixtures live
// under testdata/src/<name> relative to the calling test's package and
// must be valid, compilable Go (testdata is invisible to ./... patterns
// but loads fine by explicit path).
package analysistest

import (
	"fmt"
	"path"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dcqcn/internal/lint"
	"dcqcn/internal/lint/analysis"
	"dcqcn/internal/lint/load"
)

// Run loads the fixture packages (directories under testdata/src),
// applies the analyzer to them in one lint.Run, and reports unmatched
// expectations and unexpected findings through t.
func Run(t *testing.T, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	if len(fixtures) == 0 {
		t.Fatal("analysistest: no fixtures")
	}
	patterns := make([]string, len(fixtures))
	for i, fx := range fixtures {
		patterns[i] = "./" + path.Join("testdata/src", fx)
	}
	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	findings, err := lint.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	wants := make(map[lineKey][]*expectation)
	for _, pkg := range pkgs {
		if err := collectWants(pkg, wants); err != nil {
			t.Fatalf("analysistest: %s: %v", pkg.PkgPath, err)
		}
	}
	for _, f := range findings {
		found := false
		for _, w := range wants[lineKey{f.Position.Filename, f.Position.Line}] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected finding: %s", f.Pos, f.Message)
		}
	}
	keys := make([]lineKey, 0, len(wants))
	for key := range wants {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, key := range keys {
		for _, w := range wants[key] {
			if !w.matched {
				t.Errorf("%s:%d: expected finding matching %q, got none", key.file, key.line, w.raw)
			}
		}
	}
}

// expectation is one `// want` regexp, anchored to a file line.
type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

type lineKey struct {
	file string
	line int
}

// wantRE extracts the quoted patterns of a want comment. Both "..." and
// `...` quoting are accepted.
var wantRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// collectWants parses `// want` comments out of every file of pkg into
// wants.
func collectWants(pkg *load.Package, wants map[lineKey][]*expectation) error {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				quoted := wantRE.FindAllString(text, -1)
				if len(quoted) == 0 {
					return fmt.Errorf("%s: want comment with no quoted pattern", pos)
				}
				for _, q := range quoted {
					pat, err := unquote(q)
					if err != nil {
						return fmt.Errorf("%s: bad pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return fmt.Errorf("%s: bad regexp %s: %v", pos, q, err)
					}
					key := lineKey{pos.Filename, pos.Line}
					wants[key] = append(wants[key], &expectation{re: re, raw: pat})
				}
			}
		}
	}
	return nil
}

func unquote(q string) (string, error) {
	if strings.HasPrefix(q, "`") {
		return strings.Trim(q, "`"), nil
	}
	return strconv.Unquote(q)
}
