package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"dcqcn/internal/lint/analysis"
	"dcqcn/internal/lint/callgraph"
)

// Hookpassive enforces the passivity contract hooks.Chain documents:
// subscribers composed onto observation hooks (hooks.Chain*, the
// ChainOn* convenience methods) observe the simulation, they do not
// steer it. A subscriber that transitively writes an //acct: counter,
// schedules an event, or mutates model state makes model behaviour
// depend on which observers happen to be attached — the flight
// recorder's presence would change digests. The analyzer resolves the
// subscriber argument of every chain registration to its call-graph
// node and flags the forbidden transitive effects with the witness
// chain down to the primitive site.
//
// A subscriber that cannot be resolved statically (a function-valued
// expression that is not a literal, named function, or method value)
// is reported as unverifiable unless it is a parameter of the
// enclosing function — the relay idiom, where a ChainOn* helper
// forwards its caller's subscriber and the obligation moves to the
// caller's own registration site, which this analyzer also checks.
var Hookpassive = &analysis.Analyzer{
	Name: "hookpassive",
	Doc: "hook subscribers (hooks.Chain*, ChainOn*) must stay passive: " +
		"no transitive //acct: writes, event scheduling, or model-state mutation",
	Run: runHookpassive,
}

// hookForbidden are the effects that make a hook subscriber active.
const hookForbidden = callgraph.WritesAcctField | callgraph.SchedulesEvent | callgraph.WritesModelState

func runHookpassive(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		var encl *ast.FuncDecl
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				encl = x
			case *ast.CallExpr:
				if sub := subscriberArg(pass, x); sub != nil {
					checkSubscriber(pass, encl, sub)
				}
			}
			return true
		})
	}
	return nil
}

// subscriberArg returns the subscriber expression of a hook
// registration call, or nil if the call is not one. Two shapes count:
//
//	p.OnRx = hooks.Chain(p.OnRx, sub)   // last arg of hooks.Chain*
//	p.ChainOnRx(sub)                    // sole arg of a ChainOn* method
func subscriberArg(pass *analysis.Pass, call *ast.CallExpr) ast.Expr {
	fun := ast.Unparen(call.Fun)
	// Strip explicit generic instantiation (hooks.Chain3[int, int, int]).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	name := sel.Sel.Name
	switch {
	case strings.HasPrefix(name, "Chain") && !strings.HasPrefix(name, "ChainOn"):
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "hooks" || len(call.Args) != 2 {
			return nil
		}
		return call.Args[1]
	case strings.HasPrefix(name, "ChainOn") && len(call.Args) == 1:
		if _, ok := pass.TypesInfo.Selections[sel]; !ok {
			return nil // package-qualified function, not a method
		}
		return call.Args[0]
	}
	return nil
}

func checkSubscriber(pass *analysis.Pass, encl *ast.FuncDecl, sub ast.Expr) {
	node := pass.Graph.ResolveFunc(pass.TypesInfo, sub)
	if node == nil {
		if isEnclosingParam(pass, encl, sub) {
			return // relay idiom: callers' registration sites carry the obligation
		}
		pass.Reportf(sub.Pos(),
			"hook subscriber cannot be resolved statically, so its passivity is unverified; pass a literal or named function, or waive with %s hookpassive <reason>",
			allowDirective)
		return
	}
	viol := node.Effects() & hookForbidden
	if viol == 0 {
		return
	}
	// One report per subscriber: the lowest set bit is the most specific
	// charge (an //acct: write also counts as a model-state write).
	bit := viol & -viol
	pass.Reportf(sub.Pos(),
		"hook subscriber %s %s (%s): subscribers must stay passive or attaching an observer changes model behaviour",
		node, bit.Describe(), pass.Graph.Describe(node, bit))
}

// isEnclosingParam reports whether e is a bare use of a parameter of
// the function declaration enclosing the registration.
func isEnclosingParam(pass *analysis.Pass, encl *ast.FuncDecl, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || encl == nil || encl.Type.Params == nil {
		return false
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	return declaredWithin(v, encl.Type.Params)
}
