package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"dcqcn/internal/lint/analysis"
	"dcqcn/internal/lint/callgraph"
	"dcqcn/internal/lint/load"
)

// The fourth analyzer family (DESIGN.md §14) is interprocedural: it
// judges call sites and hook registrations by what the callee can
// transitively do, using internal/lint/callgraph effect summaries. The
// driver builds one graph per invocation over every loaded package and
// hands it to each pass; the two family analyzers (ccability,
// hookpassive) and the summary-consulting upgrades in
// walltime/globalrand/maporder all read the same graph, so the
// fixpoint is paid once.

// cgAllowDirective waives one interprocedural diagnostic, with a
// mandatory reason, e.g.
//
//	//cg:allow capability set derived from the rule table; Validate pins the signals
//
// placed on the flagged line or the line above it — the //lint:ordered
// grammar. A reasonless directive is itself reported as malformed.
const cgAllowDirective = "//cg:allow"

// cgReport emits a diagnostic at n unless a //cg:allow directive
// covers it; a reasonless allow is reported as malformed instead of
// honoured.
func cgReport(pass *analysis.Pass, file *ast.File, n ast.Node, format string, args ...any) {
	line := pass.Fset.Position(n.Pos()).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, cgAllowDirective) {
				continue
			}
			cl := pass.Fset.Position(c.Pos()).Line
			if cl == line || cl == line-1 {
				if strings.TrimSpace(strings.TrimPrefix(c.Text, cgAllowDirective)) == "" {
					pass.Reportf(n.Pos(), "%s directive without a reason; state why this is safe", cgAllowDirective)
				}
				return
			}
		}
	}
	pass.Reportf(n.Pos(), format, args...)
}

// ModelStateConfig is the callgraph configuration the driver and the
// analyzers share: model state is everything except the packages
// exempt from model rules (cmd, harness) and the passive observers.
// The canonical predicate lives in callgraph.DefaultConfig so
// analysistest (which cannot import this package) builds identical
// graphs.
func ModelStateConfig() callgraph.Config {
	return callgraph.DefaultConfig()
}

// unitsOf adapts loaded packages to callgraph units.
func unitsOf(pkgs []*load.Package) []*callgraph.Unit {
	units := make([]*callgraph.Unit, len(pkgs))
	for i, p := range pkgs {
		units[i] = &callgraph.Unit{Files: p.Files, Pkg: p.Types, Info: p.Info}
	}
	return units
}

// graphFor returns the pass's shared call graph, building a
// single-package one when the pass was driven without a graph (unit
// tests, direct analyzer invocations).
func graphFor(pass *analysis.Pass) *callgraph.Graph {
	if g, ok := pass.Graph.(*callgraph.Graph); ok && g != nil {
		return g
	}
	unit := &callgraph.Unit{Files: pass.Files, Pkg: pass.Pkg, Info: pass.TypesInfo}
	return callgraph.For(ModelStateConfig(), pass.Fset, []*callgraph.Unit{unit})
}

// calleeFunc resolves a call's static callee object, or nil.
func calleeFunc(pass *analysis.Pass, fun ast.Expr) *types.Func {
	switch x := ast.Unparen(fun).(type) {
	case *ast.Ident:
		f, _ := pass.TypesInfo.Uses[x].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pass.TypesInfo.Uses[x.Sel].(*types.Func)
		return f
	}
	return nil
}
