package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"dcqcn/internal/lint/analysis"
	"dcqcn/internal/lint/load"
)

// Finding is one diagnostic from one analyzer, in the shape both the
// text and -json outputs of dcqcn-lint use.
type Finding struct {
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
	Pos      string `json:"pos"`
	Message  string `json:"message"`

	Position token.Position `json:"-"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// allowDirective is the one waiver grammar, for every analyzer:
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line above it.
const allowDirective = "//lint:allow"

// waiver is one //lint:allow directive.
type waiver struct {
	analyzer string
	reasoned bool
	pos      token.Position
	used     bool
}

// waiversOf collects the //lint:allow directives in a package.
func waiversOf(pkg *load.Package) []*waiver {
	var out []*waiver
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				fields := strings.Fields(c.Text)
				if len(fields) == 0 || fields[0] != allowDirective {
					continue
				}
				w := &waiver{pos: pkg.Fset.Position(c.Pos()), reasoned: len(fields) > 2}
				if len(fields) > 1 {
					w.analyzer = fields[1]
				}
				out = append(out, w)
			}
		}
	}
	return out
}

// Run applies every analyzer in analyzers to every package in pkgs,
// applies the packages' //lint:allow waivers, and returns the findings
// sorted by position. A reasoned waiver
// silences the finding it covers; a reasonless one is reported in its
// place. A waiver naming an unknown analyzer is itself a finding, and
// so is a stale one: its analyzer ran over its package and it silenced
// nothing. Waivers for analyzers outside analyzers are not judged.
// Analyzer errors (not findings) abort the run.
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	ran := make(map[string]bool)
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var findings []Finding
	add := func(analyzer, pkgPath string, pos token.Position, msg string) {
		findings = append(findings, Finding{
			Analyzer: analyzer, Package: pkgPath, Pos: pos.String(), Message: msg, Position: pos,
		})
	}
	for _, pkg := range pkgs {
		waivers := waiversOf(pkg)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				msg := d.Message
				if w := cover(waivers, name, pos); w != nil {
					w.used = true
					if w.reasoned {
						return
					}
					msg = fmt.Sprintf("%s %s waiver without a reason; state why this finding is safe", allowDirective, name)
				}
				add(name, pkg.PkgPath, pos, msg)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
		for _, w := range waivers {
			switch {
			case !known[w.analyzer]:
				add("lint", pkg.PkgPath, w.pos, fmt.Sprintf("%s names unknown analyzer %q", allowDirective, w.analyzer))
			case ran[w.analyzer] && !w.used:
				add("lint", pkg.PkgPath, w.pos, fmt.Sprintf("stale %s %s waiver: it silences nothing; remove it", allowDirective, w.analyzer))
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Position, findings[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}

// cover returns the waiver for analyzer on pos's line or the line
// above it, or nil.
func cover(waivers []*waiver, analyzer string, pos token.Position) *waiver {
	for _, w := range waivers {
		if w.analyzer == analyzer && w.pos.Filename == pos.Filename &&
			(w.pos.Line == pos.Line || w.pos.Line == pos.Line-1) {
			return w
		}
	}
	return nil
}
