// Package analysis is a minimal, stdlib-only analogue of
// golang.org/x/tools/go/analysis: just enough structure (Analyzer, Pass,
// Diagnostic) to write single-package static checks against go/ast and
// go/types. The module has no third-party dependencies, so x/tools is
// not vendored; the contract analyzers only need the single-pass subset
// reimplemented here (no facts, no cross-analyzer requires, no
// suggested fixes).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, //lint:allow waivers
	// and test expectations. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Diagnostic is one finding: a source position and a message.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
