// Package lint implements the simulator's contracts as static
// analyzers. The first family is the determinism contract (see
// DESIGN.md, "Determinism contract"). The engine promises bit-identical
// runs per seed; that only holds if model code never consults the wall
// clock, never draws from a shared global RNG, never lets map iteration
// order reach event scheduling or results, and never compares floats
// for exact equality where rounding differs. These properties are
// enforced here at analysis time, so violations fail `make check`
// instead of surfacing as digest mismatches after an N-run sweep.
//
// A second family (DESIGN.md, "Physics contract") is one analyzer:
// noconc keeps model packages single-threaded. The rest of that
// contract is held at run time, by the engine's past-event panic and
// the conservation auditor in internal/invariant.
//
// A third family (DESIGN.md, "Hot-path allocation contract") is one
// analyzer: hotchain forbids per-event hook chaining inside
// //hot:path-annotated functions. Allocation itself is judged by its
// two ground truths, the compiler-backed escape audit in
// internal/escape (`dcqcn-lint -escape`) and the AllocsPerRun budget
// tests in the hot packages.
//
// Every analyzer judges one package at a time, and one is kept only
// where the runtime gates miss some of what it flags; DESIGN.md §14
// records each one's planted violations and which gate, if any, failed.
//
// One waiver grammar covers every analyzer: `//lint:allow <analyzer>
// <reason>` on the flagged line or the line above it (see Run).
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dcqcn/internal/lint/analysis"
)

// All returns the 7 contract analyzers in stable order: the
// determinism family (walltime, globalrand, maporder, floateq,
// simtime), the concurrency rule (noconc — see DESIGN.md §9) and the
// hot-path family (hotchain — see DESIGN.md §12).
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Walltime, Globalrand, Maporder, Floateq, Simtime,
		Noconc,
		Hotchain,
	}
}

// ExemptFromModelRules reports whether a package is outside the
// simulation model and therefore allowed to touch wall-clock time and
// process-global randomness: command-line mains (any path element
// "cmd") and the sweep harness (element "harness"), whose provenance
// artifacts record real timestamps by design. Everything else in the
// module is model code. Test files are exempt too, but the loader never
// feeds them to analyzers in the first place.
func ExemptFromModelRules(pkgPath string) bool {
	for _, el := range strings.Split(pkgPath, "/") {
		if el == "cmd" || el == "harness" {
			return true
		}
	}
	return false
}

// pkgNameOf resolves an expression to the *types.PkgName it denotes, or
// nil if the expression is not a package qualifier.
func pkgNameOf(info *types.Info, e ast.Expr) *types.PkgName {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

// isFloat reports whether t's underlying type is a floating-point kind.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isIntegerish reports whether t's underlying type is an integer kind,
// for the commutative-accumulation exemption in maporder.
func isIntegerish(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// declaredWithin reports whether obj's declaration lies inside node.
// Loop variables, := declarations and closure parameters inside a range
// body all satisfy it; package-level and enclosing-function state does
// not.
func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj != nil && obj.Pos() != token.NoPos && n.Pos() <= obj.Pos() && obj.Pos() < n.End()
}

// buildParents maps every node in root to its parent, for the analyses
// that need to look outward from a match (e.g. maporder's
// collect-then-sort idiom).
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// rootIdent unwraps selectors, indexes, stars and parens to the base
// identifier of an lvalue-ish expression: a.b[i].c -> a.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
