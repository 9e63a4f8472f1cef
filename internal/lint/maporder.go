package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"dcqcn/internal/lint/analysis"
)

// Maporder flags `range` over a map whose body is sensitive to
// iteration order: Go randomizes map order per iteration, so any
// order-dependent effect inside the loop — scheduling events, mutating
// state declared outside the loop, appending to result slices,
// accumulating floats (addition is not associative) — breaks
// bit-determinism even when every input is seeded.
//
// Three shapes pass without annotation:
//
//   - commutative integer accumulation (+=, -=, ^=, |=, &=, *=, ++, --),
//     where order provably cannot matter;
//   - keyed stores (m2[k] = v, s[i] = v), whose aggregate result is
//     independent of write order for distinct keys;
//   - the collect-then-sort idiom: a body that only appends to one
//     outer slice which a later statement in the same block passes to
//     sort or slices — the canonical way to impose order on a map.
//
// Everything else either sorts its keys first or carries an explicit
// justification on the line of the first order-sensitive statement (the
// one reported) or the line above:
//
//	//lint:allow maporder <reason>
var Maporder = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag map ranges whose body is iteration-order sensitive (event scheduling, outer-state " +
		"mutation, slice appends, float accumulation); sort keys first or waive with //lint:allow maporder <reason>",
	Run: runMaporder,
}

func runMaporder(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		parents := buildParents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			viols := orderSensitiveOps(pass.TypesInfo, rs)
			if len(viols) == 0 {
				return true
			}
			if target := commonAppendTarget(viols); target != nil &&
				sortedAfter(pass.TypesInfo, parents, rs, target) {
				return true
			}
			v := viols[0]
			pass.Reportf(v.pos,
				"map iteration order reaches %s; sort the keys first or waive with %s maporder <reason>", v.msg, allowDirective)
			return true
		})
	}
	return nil
}

// violation is one order-sensitive operation inside a map-range body.
type violation struct {
	msg string
	pos token.Pos
	// appendTo is set when the operation is `x = append(x, ...)` on an
	// outer slice, the raw material of the collect-then-sort idiom.
	appendTo *types.Var
}

// orderSensitiveOps scans the body of a map range and returns every
// operation whose outcome depends on iteration order.
func orderSensitiveOps(info *types.Info, rs *ast.RangeStmt) []violation {
	var viols []violation
	report := func(v violation) { viols = append(viols, v) }

	// outer reports whether the expression is rooted at a variable
	// declared outside the range statement (the range's own key/value
	// variables are inside).
	outer := func(e ast.Expr) (*types.Var, bool) {
		id := rootIdent(e)
		if id == nil {
			return nil, false
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if v, ok := obj.(*types.Var); ok && !declaredWithin(v, rs) {
			return v, true
		}
		return nil, false
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				var rhs ast.Expr
				if len(st.Rhs) == len(st.Lhs) {
					rhs = st.Rhs[i]
				}
				checkWrite(info, lhs, rhs, st.Tok, outer, report)
			}
		case *ast.IncDecStmt:
			checkWrite(info, st.X, nil, st.Tok, outer, report)
		case *ast.SendStmt:
			if obj, ok := outer(st.Chan); ok {
				report(violation{
					msg: fmt.Sprintf("a send on channel %q declared outside the loop", obj.Name()),
					pos: st.Arrow,
				})
			}
		case *ast.CallExpr:
			checkCall(info, st, outer, report)
		}
		return true
	})
	return viols
}

// checkWrite classifies one assignment target inside a map-range body.
func checkWrite(info *types.Info, lhs, rhs ast.Expr, tok token.Token,
	outer func(ast.Expr) (*types.Var, bool), report func(violation)) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	// Keyed stores: m[k] = v and s[i] = v write disjoint slots per
	// distinct key, so the aggregate result is order-independent.
	if _, ok := lhs.(*ast.IndexExpr); ok {
		return
	}
	obj, isOuter := outer(lhs)
	if !isOuter {
		return
	}
	t := obj.Type()
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN,
		token.INC, token.DEC:
		if isIntegerish(t) {
			return // commutative, associative: order cannot matter
		}
		if isFloat(t) {
			report(violation{
				msg: fmt.Sprintf("floating-point accumulation into %q (float addition is not associative)", obj.Name()),
				pos: lhs.Pos(),
			})
			return
		}
		report(violation{
			msg: fmt.Sprintf("order-dependent accumulation into %q declared outside the loop", obj.Name()),
			pos: lhs.Pos(),
		})
	default:
		if target, ok := appendTarget(info, obj, rhs); ok {
			report(violation{
				msg:      fmt.Sprintf("an append to %q declared outside the loop", obj.Name()),
				pos:      lhs.Pos(),
				appendTo: target,
			})
			return
		}
		// Plain (re)assignment: last writer wins, and the last
		// iteration is random.
		report(violation{
			msg: fmt.Sprintf("a write to %q declared outside the loop (last writer depends on iteration order)", obj.Name()),
			pos: lhs.Pos(),
		})
	}
}

// appendTarget recognizes `x = append(x, ...)` growing the same outer
// variable the result is assigned to.
func appendTarget(info *types.Info, lhs *types.Var, rhs ast.Expr) (*types.Var, bool) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil, false
	}
	if b, ok := info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return nil, false
	}
	base := rootIdent(call.Args[0])
	if base == nil || info.Uses[base] != lhs {
		return nil, false
	}
	return lhs, true
}

// checkCall flags calls that can smuggle iteration order into outer
// state: method calls on receivers declared outside the loop (event
// scheduling, collectors, builders) and calls through function-valued
// variables captured from outside. A call to a declared function
// passes: the analyzer judges this body only, so an effect buried in
// the callee is left to the runtime gates (DESIGN.md §14).
func checkCall(info *types.Info, call *ast.CallExpr,
	outer func(ast.Expr) (*types.Var, bool), report func(violation)) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if _, ok := info.Selections[fun]; ok {
			if obj, isOuter := outer(fun.X); isOuter {
				report(violation{
					msg: fmt.Sprintf("a call to %s.%s on state declared outside the loop", obj.Name(), fun.Sel.Name),
					pos: call.Pos(),
				})
			}
		}
	case *ast.Ident:
		if _, ok := info.Uses[fun].(*types.Var); ok {
			if obj, isOuter := outer(fun); isOuter {
				report(violation{
					msg: fmt.Sprintf("a call through function value %q declared outside the loop", obj.Name()),
					pos: call.Pos(),
				})
			}
		}
	}
}

// commonAppendTarget returns the single outer slice all violations
// append to, or nil if the body does anything else.
func commonAppendTarget(viols []violation) *types.Var {
	var target *types.Var
	for _, v := range viols {
		if v.appendTo == nil {
			return nil
		}
		if target == nil {
			target = v.appendTo
		} else if target != v.appendTo {
			return nil
		}
	}
	return target
}

// sortedAfter reports whether a statement after rs in its enclosing
// block passes target to the sort or slices package — the second half
// of the collect-then-sort idiom.
func sortedAfter(info *types.Info, parents map[ast.Node]ast.Node, rs *ast.RangeStmt, target *types.Var) bool {
	// Climb to the statement list containing rs.
	var child ast.Node = rs
	var list []ast.Stmt
	for {
		parent := parents[child]
		if parent == nil {
			return false
		}
		switch p := parent.(type) {
		case *ast.BlockStmt:
			list = p.List
		case *ast.CaseClause:
			list = p.Body
		case *ast.CommClause:
			list = p.Body
		}
		if list != nil {
			break
		}
		child = parent
	}
	idx := -1
	for i, st := range list {
		if st == child {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	for _, st := range list[idx+1:] {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			pn := pkgNameOf(info, sel.X)
			if pn == nil {
				return true
			}
			if path := pn.Imported().Path(); path != "sort" && path != "slices" {
				return true
			}
			if base := rootIdent(call.Args[0]); base != nil && info.Uses[base] == target {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
