package callgraph

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// checkUnit parses and type-checks one synthetic package into a Unit.
func checkUnit(t *testing.T, fset *token.FileSet, path, src string) *Unit {
	t.Helper()
	f, err := parser.ParseFile(fset, strings.ReplaceAll(path, "/", "_")+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Unit{Files: []*ast.File{f}, Pkg: pkg, Info: info}
}

// nodeByName finds a declared function's node by its diagnostic name.
func nodeByName(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for _, n := range g.nodes {
		if n.obj != nil && n.String() == name {
			return n
		}
	}
	t.Fatalf("no node named %s", name)
	return nil
}

func TestEffectStringAndEach(t *testing.T) {
	e := CallsWalltime | SchedulesEvent
	if got := e.String(); got != "calls-walltime+schedules-event" {
		t.Errorf("String() = %q", got)
	}
	if got := Effect(0).String(); got != "none" {
		t.Errorf("zero String() = %q", got)
	}
	if got := SchedulesEvent.Describe(); got != "schedules a simulation event" {
		t.Errorf("Describe() = %q", got)
	}
	var order []Effect
	(WritesModelState | CallsWalltime).Each(func(bit Effect) { order = append(order, bit) })
	if len(order) != 2 || order[0] != CallsWalltime || order[1] != WritesModelState {
		t.Errorf("Each order = %v, want declaration order", order)
	}
}

// TestSummaryPropagation pins the fixpoint over a three-deep chain,
// closure creation edges, and the witness chain rendering.
func TestSummaryPropagation(t *testing.T) {
	const src = `package model

import "time"

var count int

func leaf() { _ = time.Now() }

func mid() { leaf() }

func top() { mid() }

func bump() { count++ }

func spawn() func() {
	return func() { bump() }
}
`
	fset := token.NewFileSet()
	u := checkUnit(t, fset, "example.com/model", src)
	g := Build(fset, []*Unit{u})

	cases := []struct {
		fn   string
		want Effect
	}{
		{"model.leaf", CallsWalltime},
		{"model.mid", CallsWalltime},
		{"model.top", CallsWalltime},
		{"model.bump", WritesModelState},
		{"model.spawn", WritesModelState}, // via the closure creation edge
	}
	for _, c := range cases {
		if got := nodeByName(t, g, c.fn).Effects(); got != c.want {
			t.Errorf("%s effects = %v, want %v", c.fn, got, c.want)
		}
	}

	chain := g.Describe(nodeByName(t, g, "model.top"), CallsWalltime)
	for _, part := range []string{"model.mid", "model.leaf", "time.Now"} {
		if !strings.Contains(chain, part) {
			t.Errorf("witness chain %q missing %s", chain, part)
		}
	}
}

// TestCrossUnitResolution pins the stable-key identity bridge: when two
// roots are type-checked separately (as the loader does against export
// data), a callee referenced from another root is still the same node,
// so effects cross package boundaries.
func TestCrossUnitResolution(t *testing.T) {
	fset := token.NewFileSet()
	helper := checkUnit(t, fset, "example.com/harness", `package harness

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`)
	// A fresh re-check of the same source stands in for the export-data
	// copy: its *types.Func objects are distinct from helper's.
	stale := checkUnit(t, fset, "example.com/harness", `package harness

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`)
	g := Build(fset, []*Unit{helper})

	obj := stale.Pkg.Scope().Lookup("Stamp").(*types.Func)
	if helper.Pkg.Scope().Lookup("Stamp") == obj {
		t.Fatal("test setup broken: expected distinct *types.Func objects")
	}
	n := g.NodeOf(obj)
	if n == nil {
		t.Fatal("NodeOf missed the cross-root object despite matching key")
	}
	if n.Effects()&CallsWalltime == 0 {
		t.Errorf("Stamp effects = %v, want calls-walltime", n.Effects())
	}
}
