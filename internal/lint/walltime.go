package lint

import (
	"go/ast"

	"dcqcn/internal/lint/analysis"
	"dcqcn/internal/lint/callgraph"
)

// Walltime forbids reading the wall clock in model packages. A
// simulation that consults time.Now (or schedules through runtime
// timers) produces different event streams on every run, which the
// engine digest would only catch after the fact; banning the calls
// statically keeps the clock singular: simtime, advanced by the event
// loop.
//
// Two scans: the direct one flags time.X selector uses in the package
// itself; the interprocedural one flags model-package call sites whose
// callee lives in an exempt package (cmd, harness — where direct use
// is legal) yet transitively reads the clock, so exemption cannot be
// laundered through a helper. The forbidden-function list is shared
// with the call-graph builder (callgraph.WalltimeFuncs), so the two
// scans can never drift apart.
var Walltime = &analysis.Analyzer{
	Name: "walltime",
	Doc: "forbid wall-clock time (time.Now, time.Sleep, runtime timers) in model packages; " +
		"model code must use the simulated clock (engine.Sim.Now/After/Ticker)",
	Run: runWalltime,
}

func runWalltime(pass *analysis.Pass) error {
	if ExemptFromModelRules(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				pn := pkgNameOf(pass.TypesInfo, x.X)
				if pn == nil || pn.Imported().Path() != "time" {
					return true
				}
				if callgraph.WalltimeFuncs[x.Sel.Name] {
					pass.Reportf(x.Pos(),
						"wall-clock time.%s in model package %s: model code must use the simulated clock (engine.Sim.Now/After/Ticker)",
						x.Sel.Name, pass.Pkg.Path())
				}
			case *ast.CallExpr:
				checkLaunderedEffect(pass, x, callgraph.CallsWalltime,
					"reads the wall clock; model code must use the simulated clock (engine.Sim.Now/After/Ticker)")
			}
			return true
		})
	}
	return nil
}

// checkLaunderedEffect flags a model-package call whose callee lives in
// an exempt package (where the per-package scan does not look) yet
// transitively carries effect. Same-package and model-package callees
// are skipped: the per-package scan of their own package flags the
// primitive site directly.
func checkLaunderedEffect(pass *analysis.Pass, call *ast.CallExpr, effect callgraph.Effect, consequence string) {
	node := pass.Graph.ResolveFunc(pass.TypesInfo, call.Fun)
	if node == nil || node.Effects()&effect == 0 {
		return
	}
	callee := node.Pkg()
	if callee.Path() == pass.Pkg.Path() || !ExemptFromModelRules(callee.Path()) {
		return
	}
	pass.Reportf(call.Pos(),
		"call into exempt package %s transitively %s (%s); %s",
		callee.Name(), effect.Describe(), pass.Graph.Describe(node, effect), consequence)
}
