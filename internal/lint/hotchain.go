package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"dcqcn/internal/escape"
	"dcqcn/internal/lint/analysis"
)

// Hotchain keeps hook-chain construction out of //hot:path functions
// (DESIGN.md §12; escape.IsHot defines the grammar). The chaining
// helpers (internal/hooks.Chain*) and the ChainOn* convenience methods
// exist for attach time: each call wraps the previous subscriber in a
// fresh closure, so chaining from a per-event function would allocate
// a new closure per event and grow the chain without bound — every
// future event then walks an ever-longer call chain. The same applies
// to installing a hook field (On*) from hot code: observers subscribe
// once at attach, never during dispatch. The escape audit sees at most
// the chained closure, not that the chain grows.
var Hotchain = &analysis.Analyzer{
	Name: "hotchain",
	Doc: "forbid hook chaining (hooks.Chain*, ChainOn*, On* field installs) in //hot:path functions; " +
		"hooks are wired at attach time, never per event",
	Run: runHotchain,
}

func runHotchain(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !escape.IsHot(fd) {
				continue
			}
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					checkHotchainCall(pass, x, name)
				case *ast.AssignStmt:
					for i, lhs := range x.Lhs {
						// p.OnRx = hooks.Chain(p.OnRx, fn) is one operation;
						// the call rule already reports it.
						if i < len(x.Rhs) && isChainCall(x.Rhs[i]) {
							continue
						}
						checkHookInstall(pass, x, lhs, name)
					}
				}
				return true
			})
		}
	}
	return nil
}

// checkHotchainCall flags calls to the hooks package's Chain helpers
// and to Chain*-named methods (the ChainOnRx-style wrappers components
// expose over the same helpers).
func checkHotchainCall(pass *analysis.Pass, call *ast.CallExpr, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if !strings.HasPrefix(sel.Sel.Name, "Chain") {
		return
	}
	if pn := pkgNameOf(pass.TypesInfo, sel.X); pn != nil {
		// Package-qualified: only the hooks package's helpers count.
		if lastPathElement(pn.Imported().Path()) == "hooks" {
			pass.Reportf(call.Pos(),
				"hooks.%s called in hot function %s: chaining wraps a new closure per call and grows the hook chain per event; chain at attach time",
				sel.Sel.Name, name)
		}
		return
	}
	// Method call: ChainOnRx and friends on a component.
	if strings.HasPrefix(sel.Sel.Name, "ChainOn") {
		pass.Reportf(call.Pos(),
			"%s called in hot function %s: hook subscription per event grows the chain without bound; subscribe at attach time",
			sel.Sel.Name, name)
	}
}

// checkHookInstall flags assignments to On*-named func-typed fields —
// installing or replacing a hook from event-path code races with the
// chained observers wired at attach time.
func checkHookInstall(pass *analysis.Pass, at ast.Node, lhs ast.Expr, name string) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "On") {
		return
	}
	v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	if _, isFunc := v.Type().Underlying().(*types.Signature); !isFunc {
		return
	}
	pass.Reportf(at.Pos(),
		"hook field %s installed in hot function %s: hooks are wired once at attach time, not per event",
		sel.Sel.Name, name)
}

// isChainCall reports whether e is a call to a Chain*-named function
// or method.
func isChainCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && strings.HasPrefix(sel.Sel.Name, "Chain")
}

// lastPathElement returns the final element of an import path.
func lastPathElement(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
