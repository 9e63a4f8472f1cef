package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"dcqcn/internal/lint/analysis"
)

// Noconc enforces the single-threaded contract of the simulation model.
// The engine's determinism guarantee (bit-identical digests per seed)
// rests on the event loop being the only mutator of model state; a
// goroutine, channel or sync primitive inside a model package would
// introduce scheduler-dependent interleaving that no digest can pin
// down. Concurrency belongs to the harness (worker pools over whole
// runs) and to command mains, both exempt via ExemptFromModelRules.
var Noconc = &analysis.Analyzer{
	Name: "noconc",
	Doc: "forbid go statements, channel operations and sync primitives in model packages; " +
		"the simulation event loop is single-threaded by contract",
	Run: runNoconc,
}

func runNoconc(pass *analysis.Pass) error {
	if ExemptFromModelRules(pass.Pkg.Path()) {
		return nil
	}
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos,
			"%s in model package %s: the simulation event loop is single-threaded by contract; "+
				"concurrency belongs to internal/harness or cmd",
			what, pass.Pkg.Path())
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				report(x.Pos(), "go statement")
			case *ast.SendStmt:
				report(x.Pos(), "channel send")
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					report(x.Pos(), "channel receive")
				}
			case *ast.SelectStmt:
				report(x.Pos(), "select statement")
			case *ast.RangeStmt:
				if tv, ok := pass.TypesInfo.Types[x.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						report(x.Pos(), "range over channel")
					}
				}
			case *ast.ChanType:
				report(x.Pos(), "channel type")
			case *ast.SelectorExpr:
				pn := pkgNameOf(pass.TypesInfo, x.X)
				if pn == nil {
					return true
				}
				switch pn.Imported().Path() {
				case "sync", "sync/atomic":
					report(x.Pos(), "use of "+pn.Imported().Path()+"."+x.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}
