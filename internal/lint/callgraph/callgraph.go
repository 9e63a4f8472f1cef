// Package callgraph is the interprocedural layer under the contract
// analyzers (DESIGN.md §14): a stdlib-only, CHA-style call graph over
// the packages one lint invocation loads, with a per-function effect
// summary propagated to a fixpoint. The lint driver builds one graph
// per invocation and hands it to every pass. An analyzer sees one
// package at a time; a violation laundered through a
// helper — a model function calling a harness helper that reads
// time.Now, a hook closure calling a method that schedules an event —
// escapes all of them. A summary answers "what can calling this
// function transitively do?" so the callers can be judged where the
// contract applies.
//
// # Effects
//
// Each function (declared or literal) gets a bitmask of effects:
// calls-walltime, reads-global-rand, constructs-rand, writes an //acct:
// accounting field, schedules a simulation event, writes model state.
// Direct effects are seeded from the function body (the same
// primitives the intraprocedural analyzers match, plus a small
// intrinsic table for engine/eventq/core scheduling entry points,
// matched by package name so fixtures mimic them the way the globalrand
// fixture mimics the engine package); summaries are the union of direct
// effects and callee summaries, iterated to a fixpoint. Every write to
// an //acct: field is also kept as a record (AcctWrite), which the
// acctfield analyzer judges.
//
// # Resolution
//
// Static calls resolve through go/types. Interface method calls
// resolve class-hierarchy-analysis style: every named type visible in
// the load (roots and their imports) that implements the interface
// contributes its method as a possible callee. Calls through plain
// function values are not resolved — the analyzers that care (e.g.
// hookpassive) resolve the value at the site where it is bound.
// Creating a function literal adds an edge from the creator, since a
// closure handed off is a closure that may run in the creator's
// context.
//
// # Witnesses
//
// The first call edge (or primitive site) that contributed each effect
// to each function is recorded, so a diagnostic can render the chain
// down to the primitive: `f -> g (file.go:12) -> time.Now (h.go:3)`.
//
// # Caveats
//
// The graph is conservative where it is cheap to be (closure creation
// counts as a call, any implementer of an interface is a possible
// callee) and optimistic where soundness would drown the tree in noise:
// writes through pointers held in body-local variables are treated as
// writes to freshly allocated objects (the constructor idiom), and
// calls through function-valued variables contribute nothing. Both are
// documented false-negative classes, not accidents.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"strconv"
	"strings"
)

// Effect is a bitmask of the contract-relevant things a function can
// transitively do.
type Effect uint32

// Effect bits.
const (
	// CallsWalltime: reads or reacts to the wall clock (time.Now & co).
	CallsWalltime Effect = 1 << iota
	// ReadsGlobalRand: draws from the process-global math/rand source.
	ReadsGlobalRand
	// ConstructsRand: builds a rand source outside engine.New/NewStream.
	ConstructsRand
	// WritesAcctField: writes an //acct:-tagged accounting field.
	WritesAcctField
	// SchedulesEvent: schedules a simulation event (Sim.At/After/...,
	// eventq pushes, core.Clock.After timers).
	SchedulesEvent
	// WritesModelState: writes a field or package-level variable owned
	// by a model package (see modelOwned).
	WritesModelState
)

// effectNames orders the bits for String and Each.
var effectNames = []struct {
	bit  Effect
	name string
	desc string
}{
	{CallsWalltime, "calls-walltime", "reads the wall clock"},
	{ReadsGlobalRand, "reads-global-rand", "draws from the process-global rand source"},
	{ConstructsRand, "constructs-rand", "constructs a rand source outside engine.New/NewStream"},
	{WritesAcctField, "writes-acct-field", "writes an //acct: accounting field"},
	{SchedulesEvent, "schedules-event", "schedules a simulation event"},
	{WritesModelState, "writes-model-state", "mutates model state"},
}

// String renders the effect set, e.g. "calls-walltime+schedules-event".
func (e Effect) String() string {
	if e == 0 {
		return "none"
	}
	var parts []string
	for _, n := range effectNames {
		if e&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, "+")
}

// Describe renders one effect bit as a verb phrase for diagnostics.
func (e Effect) Describe() string {
	for _, n := range effectNames {
		if e == n.bit {
			return n.desc
		}
	}
	return e.String()
}

// Each calls fn once per set bit, in declaration order.
func (e Effect) Each(fn func(Effect)) {
	for _, n := range effectNames {
		if e&n.bit != 0 {
			fn(n.bit)
		}
	}
}

// Unit is one loaded package: the slice of a load.Package the graph
// needs, decoupled so tests (and analyzers holding only an
// analysis.Pass) can build graphs without the loader.
type Unit struct {
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// observerPackages are the passive instrumentation layers whose own
// state is exactly what hooks are supposed to write: the flight
// recorder, the invariant auditor, tracing, statistics and the hook
// combinators themselves. Matched by final path element so fixture
// packages mimic them by directory name.
var observerPackages = map[string]bool{
	"flightrec": true,
	"invariant": true,
	"trace":     true,
	"stats":     true,
	"hooks":     true,
}

// ExemptFromModelRules reports whether the package at pkgPath lies
// outside the simulation model: any path element "cmd" (command-line
// mains) or "harness" (the sweep harness). Its state is not model
// state, and the lint package exempts it from the model rules.
func ExemptFromModelRules(pkgPath string) bool {
	for _, el := range strings.Split(pkgPath, "/") {
		if el == "cmd" || el == "harness" {
			return true
		}
	}
	return false
}

// Node is one function in the graph: a declared function/method or a
// function literal.
type Node struct {
	obj   *types.Func  // non-nil for declared functions
	lit   *ast.FuncLit // non-nil for literals
	outer *types.Func  // obj, or the declared function a literal sits in
	unit  *Unit
	decl  ast.Node // *ast.FuncDecl or *ast.FuncLit
	body  *ast.BlockStmt

	direct, summary Effect
	edges           []edge
	witness         map[Effect]*witness
}

type edge struct {
	callee *Node
	pos    token.Pos
}

// witness records the first contributor of one effect bit: either a
// call edge (callee non-nil) or a primitive site (detail set).
type witness struct {
	callee *Node
	pos    token.Pos
	detail string
}

// Effects returns the node's transitive effect summary.
func (n *Node) Effects() Effect { return n.summary }

// Pos returns the node's declaration position.
func (n *Node) Pos() token.Pos { return n.decl.Pos() }

// Pkg returns the package the node is declared in.
func (n *Node) Pkg() *types.Package { return n.unit.Pkg }

// Outer returns the declared function n is, or the one its literal
// sits in (through any nesting); nil for a literal in a package-level
// declaration.
func (n *Node) Outer() *types.Func { return n.outer }

// String names the node for diagnostics: pkg.Func, pkg.Type.Method, or
// "function literal".
func (n *Node) String() string {
	if n.obj == nil {
		return "function literal"
	}
	name := n.obj.Name()
	if sig, ok := n.obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if rn := recvTypeName(sig.Recv().Type()); rn != "" {
			name = rn + "." + name
		}
	}
	if n.obj.Pkg() != nil {
		name = n.obj.Pkg().Name() + "." + name
	}
	return name
}

// Graph is the call graph plus effect summaries for one batch of
// loaded packages.
type Graph struct {
	fset   *token.FileSet
	funcs  map[*types.Func]*Node
	byKey  map[string]*Node // stable key fallback: cross-root refs resolve to export-data objects
	lits   map[*ast.FuncLit]*Node
	nodes  []*Node // deterministic order: unit, file, position
	named  []*types.Named
	cands  map[*types.Interface][]*types.Func // CHA memo: iface -> implementing methods
	acct   map[*types.Var]*types.TypeName     // //acct: field -> owning type
	writes []AcctWrite
}

// AcctWrite is one write to an //acct:-tagged field. Tags are comments,
// which export data does not carry, so a write is recorded only within
// the package that declares the field.
type AcctWrite struct {
	Pos    token.Pos
	Field  *types.Var
	Owner  *types.TypeName // the struct type declaring Field
	Writer *Node
}

// Build constructs the graph and runs effect propagation to a
// fixpoint.
func Build(fset *token.FileSet, units []*Unit) *Graph {
	g := &Graph{
		fset:  fset,
		funcs: make(map[*types.Func]*Node),
		byKey: make(map[string]*Node),
		lits:  make(map[*ast.FuncLit]*Node),
		cands: make(map[*types.Interface][]*types.Func),
		acct:  make(map[*types.Var]*types.TypeName),
	}
	for _, u := range units {
		g.collectAcct(u)
	}
	g.collectNamed(units)
	for _, u := range units {
		for _, f := range u.Files {
			g.indexFile(u, f)
		}
	}
	for _, n := range g.nodes {
		g.scan(n)
	}
	g.propagate()
	return g
}

// AcctWrites returns every recorded //acct: field write, in node order.
func (g *Graph) AcctWrites() []AcctWrite { return g.writes }

// NodeOf returns the node for a declared function, or nil if its body
// was not loaded.
func (g *Graph) NodeOf(f *types.Func) *Node { return g.lookup(f) }

// lookup resolves a *types.Func to its node. Identity works within one
// root package; across roots the loader type-checks each root against
// gc export data, so the same function is a distinct object in every
// importing root — the stable key (package path, receiver type, name)
// bridges those back to the root where the body was indexed.
func (g *Graph) lookup(f *types.Func) *Node {
	if f == nil {
		return nil
	}
	if n := g.funcs[f]; n != nil {
		return n
	}
	return g.byKey[funcKey(f)]
}

// funcKey builds the cross-root identity key for a declared function.
func funcKey(f *types.Func) string {
	recv := ""
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = recvTypeName(sig.Recv().Type())
	}
	path := ""
	if f.Pkg() != nil {
		path = f.Pkg().Path()
	}
	return path + "|" + recv + "|" + f.Name()
}

// LitNode returns the node for a function literal.
func (g *Graph) LitNode(l *ast.FuncLit) *Node { return g.lits[l] }

// ResolveFunc resolves a function-valued expression to its node:
// literals, named functions, method values and package-qualified
// functions. Variables and unresolvable expressions return nil.
func (g *Graph) ResolveFunc(info *types.Info, e ast.Expr) *Node {
	switch x := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return g.lits[x]
	case *ast.Ident:
		if f, ok := info.Uses[x].(*types.Func); ok {
			return g.lookup(f)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return g.lookup(f)
			}
		}
		if f, ok := info.Uses[x.Sel].(*types.Func); ok {
			return g.lookup(f)
		}
	}
	return nil
}

// Describe renders the witness chain for one effect bit of n, down to
// the primitive site: "fabric.Switch.forward (switch.go:80) ->
// time.Now (clock.go:12)". Cycles (mutual recursion) truncate with
// "...".
func (g *Graph) Describe(n *Node, e Effect) string {
	var parts []string
	seen := map[*Node]bool{}
	for cur := n; ; {
		if seen[cur] {
			parts = append(parts, "...")
			break
		}
		seen[cur] = true
		w := cur.witness[e]
		if w == nil {
			break
		}
		if w.callee == nil {
			parts = append(parts, w.detail+" ("+g.short(w.pos)+")")
			break
		}
		parts = append(parts, w.callee.String()+" ("+g.short(w.pos)+")")
		cur = w.callee
	}
	return strings.Join(parts, " -> ")
}

// short renders pos as base-filename:line.
func (g *Graph) short(pos token.Pos) string {
	p := g.fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}

// --- construction ---

// collectAcct gathers //acct:-tagged struct fields with their owning
// types (the acctfield analyzer's tag, readable here because roots are
// parsed with comments).
func (g *Graph) collectAcct(u *Unit) {
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				owner, isType := u.Info.Defs[ts.Name].(*types.TypeName)
				if !ok || !isType {
					continue
				}
				for _, field := range st.Fields.List {
					if !fieldHasAcctTag(field) {
						continue
					}
					for _, name := range field.Names {
						if v, ok := u.Info.Defs[name].(*types.Var); ok {
							g.acct[v] = owner
						}
					}
				}
			}
		}
	}
}

func fieldHasAcctTag(field *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//acct:") {
				return true
			}
		}
	}
	return false
}

// collectNamed gathers every named (non-interface handled later) type
// visible in the load — root packages plus their transitive imports —
// as the class hierarchy for interface-call resolution.
func (g *Graph) collectNamed(units []*Unit) {
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				g.named = append(g.named, named)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, u := range units {
		walk(u.Pkg)
	}
}

// indexFile creates nodes for every function declaration and literal,
// adding creation edges from enclosing function to literal (a closure
// handed off is a closure that may run in its creator's context).
func (g *Graph) indexFile(u *Unit, f *ast.File) {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			if fd.Body == nil {
				continue
			}
			obj, ok := u.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{obj: obj, outer: obj, unit: u, decl: fd, body: fd.Body, witness: map[Effect]*witness{}}
			g.funcs[obj] = n
			g.byKey[funcKey(obj)] = n
			g.nodes = append(g.nodes, n)
			g.indexLits(u, fd.Body, n)
			continue
		}
		// Package-level declarations can hold literals too
		// (var f = func() {...}); they have no enclosing node.
		g.indexLits(u, decl, nil)
	}
}

// indexLits finds the function literals directly or transitively
// nested in root and gives each its own node.
func (g *Graph) indexLits(u *Unit, root ast.Node, encl *Node) {
	ast.Inspect(root, func(x ast.Node) bool {
		lit, ok := x.(*ast.FuncLit)
		if !ok || x == root {
			return true
		}
		n := &Node{lit: lit, unit: u, decl: lit, body: lit.Body, witness: map[Effect]*witness{}}
		g.lits[lit] = n
		g.nodes = append(g.nodes, n)
		if encl != nil {
			n.outer = encl.outer
			encl.edges = append(encl.edges, edge{callee: n, pos: lit.Pos()})
		}
		g.indexLits(u, lit.Body, n)
		return false
	})
}

// scan seeds n's direct effects and call edges from its body.
func (g *Graph) scan(n *Node) {
	sanctioned := g.sanctionedRandHost(n)
	ast.Inspect(n.body, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			// Nested literal: it has its own node (and the creation edge
			// was added at index time); don't absorb its body here.
			return false
		case *ast.SelectorExpr:
			g.scanSelector(n, v, sanctioned)
		case *ast.CallExpr:
			g.scanCall(n, v)
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				g.scanWrite(n, lhs)
			}
		case *ast.IncDecStmt:
			g.scanWrite(n, v.X)
		}
		return true
	})
}

// sanctionedRandHost reports whether n is one of the functions allowed
// to construct rand sources: New and NewStream in a package named
// engine (the globalrand analyzer's rule).
func (g *Graph) sanctionedRandHost(n *Node) bool {
	return n.obj != nil && n.unit.Pkg.Name() == "engine" &&
		(n.obj.Name() == "New" || n.obj.Name() == "NewStream")
}

// WalltimeFuncs lists the time-package functions that read or react to
// the wall clock (shared with the walltime analyzer).
var WalltimeFuncs = map[string]bool{
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

// RandPackages are the import paths whose package-level state is the
// process-global source (shared with the globalrand analyzer).
var RandPackages = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// RandConstructors are the rand-source constructors only
// engine.New/NewStream may call (shared with the globalrand analyzer).
var RandConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// scanSelector seeds walltime and global-rand effects from any
// reference to the relevant package members — a reference, not just a
// call, since passing time.Now as a value launders it just as well.
func (g *Graph) scanSelector(n *Node, sel *ast.SelectorExpr, sanctioned bool) {
	info := n.unit.Info
	pn := pkgQualifier(info, sel.X)
	if pn == nil {
		return
	}
	path := pn.Imported().Path()
	name := sel.Sel.Name
	switch {
	case path == "time" && WalltimeFuncs[name]:
		g.addDirect(n, CallsWalltime, sel.Pos(), "time."+name)
	case RandPackages[path]:
		obj := info.Uses[sel.Sel]
		if obj == nil {
			return
		}
		if _, isType := obj.(*types.TypeName); isType {
			return // rand.Rand / rand.Source in declarations
		}
		if RandConstructors[name] {
			if !sanctioned {
				g.addDirect(n, ConstructsRand, sel.Pos(), "rand."+name)
			}
		} else {
			g.addDirect(n, ReadsGlobalRand, sel.Pos(), "rand."+name)
		}
	}
}

// scanCall adds call edges (static and interface/CHA) and intrinsic
// effects for callees whose bodies are not loaded.
func (g *Graph) scanCall(n *Node, call *ast.CallExpr) {
	info := n.unit.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch o := info.Uses[fun].(type) {
		case *types.Func:
			g.addCall(n, o, call.Pos())
		case *types.Builtin:
			// delete(m, k) and clear(m) mutate their argument in place.
			if (o.Name() == "delete" || o.Name() == "clear") && len(call.Args) > 0 {
				g.scanWrite(n, call.Args[0])
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return
			}
			if types.IsInterface(sel.Recv()) {
				g.addInterfaceCall(n, m, sel.Recv().Underlying().(*types.Interface), call.Pos())
			} else {
				g.addCall(n, m, call.Pos())
			}
			return
		}
		// Package-qualified call: pkg.F(...).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			g.addCall(n, f, call.Pos())
		}
	}
}

// addCall records one resolved call: an edge when the callee body is
// loaded, plus intrinsic effects for the scheduling entry points and
// stdlib primitives (applied whether or not the body is loaded, so a
// per-package run classifies calls into engine the same way a
// whole-tree run does).
func (g *Graph) addCall(n *Node, callee *types.Func, pos token.Pos) {
	if e := intrinsicEffect(callee); e != 0 {
		if g.sanctionedRandHost(n) {
			e &^= ConstructsRand | ReadsGlobalRand
		}
		e.Each(func(bit Effect) {
			g.addDirect(n, bit, pos, funcLabel(callee))
		})
	}
	if cn := g.lookup(callee); cn != nil && cn != n {
		n.edges = append(n.edges, edge{callee: cn, pos: pos})
	}
}

// addInterfaceCall resolves an interface method call against every
// visible implementation (CHA), plus the interface method's own
// intrinsic classification (so core.Clock.After schedules even when
// the engine is outside the load).
func (g *Graph) addInterfaceCall(n *Node, m *types.Func, iface *types.Interface, pos token.Pos) {
	if e := intrinsicEffect(m); e != 0 {
		e.Each(func(bit Effect) {
			g.addDirect(n, bit, pos, funcLabel(m))
		})
	}
	for _, impl := range g.implementers(iface) {
		if impl.Name() == m.Name() {
			g.addCall(n, impl, pos)
		}
	}
}

// implementers returns (memoized per interface) every method of every
// visible named type that implements iface.
func (g *Graph) implementers(iface *types.Interface) []*types.Func {
	if cands, ok := g.cands[iface]; ok {
		return cands
	}
	var cands []*types.Func
	if iface.NumMethods() > 0 {
		for _, named := range g.named {
			if types.IsInterface(named) {
				continue
			}
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), iface.Method(i).Name())
				if fm, ok := obj.(*types.Func); ok {
					cands = append(cands, fm)
				}
			}
		}
	}
	g.cands[iface] = cands
	return cands
}

// intrinsicEffect classifies callees the graph knows by contract
// rather than by body: stdlib time/rand primitives, and the simulator
// scheduling entry points matched by package name (so fixtures can
// mimic them, exactly as the globalrand fixture mimics engine).
func intrinsicEffect(f *types.Func) Effect {
	pkg := f.Pkg()
	if pkg == nil {
		return 0
	}
	recv := ""
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = recvTypeName(sig.Recv().Type())
	}
	name := f.Name()
	switch {
	case pkg.Path() == "time" && recv == "" && WalltimeFuncs[name]:
		return CallsWalltime
	case RandPackages[pkg.Path()] && recv == "":
		if RandConstructors[name] {
			return ConstructsRand
		}
		return ReadsGlobalRand
	case pkg.Name() == "engine" && recv == "Sim" &&
		(name == "At" || name == "After" || name == "AtArrival" || name == "Ticker"):
		return SchedulesEvent
	case pkg.Name() == "eventq" && recv == "Queue" && strings.HasPrefix(name, "Push"):
		return SchedulesEvent
	case pkg.Name() == "core" && recv == "Clock" && name == "After":
		return SchedulesEvent
	}
	return 0
}

// funcLabel names an intrinsic callee for witness chains.
func funcLabel(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if rn := recvTypeName(sig.Recv().Type()); rn != "" {
			name = rn + "." + name
		}
	}
	if f.Pkg() != nil {
		name = f.Pkg().Name() + "." + name
	}
	return name
}

// recvTypeName unwraps a receiver type to its named type's name.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// scanWrite classifies one assignment target: //acct:-tagged fields
// and model-state writes. Writes to slots rooted in body-local
// variables are skipped — the constructor idiom (`s := &S{}; s.f = v`)
// builds fresh state, and flagging it would put WritesModelState on
// nearly every function in the tree. Receivers, parameters and
// captured variables of reference-like type alias caller state and do
// count.
func (g *Graph) scanWrite(n *Node, lhs ast.Expr) {
	info := n.unit.Info
	// Unwrap indexing/derefs/parens to the selector or ident written.
	e := lhs
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
			continue
		case *ast.StarExpr:
			e = x.X
			continue
		case *ast.ParenExpr:
			e = x.X
			continue
		}
		break
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		v, ok := info.Uses[x.Sel].(*types.Var)
		if !ok {
			return
		}
		if v.IsField() {
			if owner := g.acct[v]; owner != nil {
				g.addDirect(n, WritesAcctField, lhs.Pos(), "write to //acct: field "+v.Name())
				g.writes = append(g.writes, AcctWrite{Pos: lhs.Pos(), Field: v, Owner: owner, Writer: n})
			}
			if g.rootEscapes(n, lhs) && modelOwned(v.Pkg()) {
				g.addDirect(n, WritesModelState, lhs.Pos(), "write to "+ownerLabel(v)+v.Name())
			}
			return
		}
		// Package-qualified variable: pkg.Var = x.
		if pkgQualifier(info, x.X) != nil && modelOwned(v.Pkg()) {
			g.addDirect(n, WritesModelState, lhs.Pos(), "write to "+ownerLabel(v)+v.Name())
		}
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return
		}
		if declaredWithin(v, n.decl) {
			// Local slot (including rebinding a local pointer): not a
			// shared-state write. Writes *through* it were handled above.
			return
		}
		// Package-level variable or a variable captured from an
		// enclosing function.
		if modelOwned(v.Pkg()) {
			g.addDirect(n, WritesModelState, lhs.Pos(), "write to "+ownerLabel(v)+v.Name())
		}
	}
}

// rootEscapes reports whether the written expression is rooted in
// state that outlives (or aliases state outliving) the function body:
// captured/package-level roots always escape; receiver/parameter roots
// escape when reference-like; body-local roots never do.
func (g *Graph) rootEscapes(n *Node, lhs ast.Expr) bool {
	root := rootIdent(lhs)
	if root == nil {
		return true // e.g. rooted in a call result: assume aliasing
	}
	info := n.unit.Info
	obj := info.Uses[root]
	if obj == nil {
		obj = info.Defs[root]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return true
	}
	if !declaredWithin(v, n.decl) {
		return true // captured or package-level
	}
	if declaredWithin(v, n.body) {
		return false // body-local: the constructor idiom
	}
	// Receiver or parameter: aliases the caller's state only if
	// reference-like.
	return refLike(v.Type())
}

func refLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// modelOwned reports whether state owned by pkg is model state:
// everything except the packages exempt from model rules and the
// passive observer packages, whose own state hooks are supposed to
// write.
func modelOwned(pkg *types.Package) bool {
	return pkg != nil && !ExemptFromModelRules(pkg.Path()) && !observerPackages[path.Base(pkg.Path())]
}

func ownerLabel(v *types.Var) string {
	if v.Pkg() != nil {
		return v.Pkg().Name() + "."
	}
	return ""
}

// addDirect sets one direct effect bit with its primitive witness.
func (g *Graph) addDirect(n *Node, e Effect, pos token.Pos, detail string) {
	n.direct |= e
	if n.witness[e] == nil {
		n.witness[e] = &witness{pos: pos, detail: detail}
	}
}

// propagate iterates summaries to a fixpoint. Summaries only grow, so
// a recorded witness (the first edge that contributed a bit) stays
// valid once set.
func (g *Graph) propagate() {
	for _, n := range g.nodes {
		n.summary = n.direct
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			s := n.summary
			for _, e := range n.edges {
				add := e.callee.summary &^ s
				if add == 0 {
					continue
				}
				add.Each(func(bit Effect) {
					if n.witness[bit] == nil {
						n.witness[bit] = &witness{callee: e.callee, pos: e.pos}
					}
				})
				s |= add
			}
			if s != n.summary {
				n.summary = s
				changed = true
			}
		}
	}
}

// --- small local helpers (duplicated from package lint, which imports
// this package and therefore cannot lend them) ---

func pkgQualifier(info *types.Info, e ast.Expr) *types.PkgName {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj != nil && obj.Pos() != token.NoPos && n.Pos() <= obj.Pos() && obj.Pos() < n.End()
}

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
