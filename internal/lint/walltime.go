package lint

import (
	"go/ast"

	"dcqcn/internal/lint/analysis"
)

// Walltime forbids reading the wall clock in model packages. A
// simulation that consults time.Now (or schedules through runtime
// timers) produces different event streams on every run, which the
// engine digest would only catch after the fact; banning the calls
// statically keeps the clock singular: simtime, advanced by the event
// loop. A reference counts, not only a call: passing time.Now as a
// value reads the clock just as well.
var Walltime = &analysis.Analyzer{
	Name: "walltime",
	Doc: "forbid wall-clock time (time.Now, time.Sleep, runtime timers) in model packages; " +
		"model code must use the simulated clock (engine.Sim.Now/After/Ticker)",
	Run: runWalltime,
}

// walltimeFuncs lists the time-package functions that read or react to
// the wall clock.
var walltimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

func runWalltime(pass *analysis.Pass) error {
	if ExemptFromModelRules(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			x, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pn := pkgNameOf(pass.TypesInfo, x.X)
			if pn != nil && pn.Imported().Path() == "time" && walltimeFuncs[x.Sel.Name] {
				pass.Reportf(x.Pos(),
					"wall-clock time.%s in model package %s: model code must use the simulated clock (engine.Sim.Now/After/Ticker)",
					x.Sel.Name, pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
