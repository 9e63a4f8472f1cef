package lint

import (
	"go/ast"
	"go/types"

	"dcqcn/internal/lint/analysis"
	"dcqcn/internal/lint/callgraph"
)

// Globalrand forbids the process-global math/rand source in model
// packages. The global source is shared across goroutines and seeded
// once per process, so anything drawn from it varies run to run and
// across concurrent sweep workers. All model randomness must flow
// through the per-simulation source — engine.Sim.Rand() or an injected
// *rand.Rand — whose stream is a pure function of the run seed. The
// sanctioned constructor sites are the engine package's New (the
// primary source) and Sim.NewStream (derived auxiliary streams).
//
// Calls into exempt packages (cmd, harness) are judged by the shared
// call graph (DESIGN.md §14): a model call whose callee transitively
// draws from the global source or constructs a rand source is flagged
// at the call site, where the per-package scan cannot see. A
// package-level *rand.Rand in model code is flagged too: an ambient
// stream is not threaded from the Sim, so it cannot be derived from
// the run seed, and every user shares its cursor.
var Globalrand = &analysis.Analyzer{
	Name: "globalrand",
	Doc: "forbid package-level math/rand functions, package-level *rand.Rand streams and rand constructors " +
		"outside engine.New/NewStream; model randomness must come from engine.Sim.Rand(), Sim.NewStream() " +
		"or an injected *rand.Rand",
	Run: runGlobalrand,
}

// randConstructorHosts are the functions (within a package named
// "engine") allowed to call rand constructors.
var randConstructorHosts = map[string]bool{
	"New":       true,
	"NewStream": true,
}

func runGlobalrand(pass *analysis.Pass) error {
	if ExemptFromModelRules(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		checkAmbientStreams(pass, f)
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			inEngineNew := fn != nil && randConstructorHosts[fn.Name.Name] &&
				pass.Pkg.Name() == "engine"
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					// Interprocedural half: a helper in an exempt package
					// drawing from the global source on model code's behalf.
					checkLaunderedEffect(pass, call, callgraph.ReadsGlobalRand,
						"model randomness must come from engine.Sim.Rand() or an injected *rand.Rand")
					checkLaunderedEffect(pass, call, callgraph.ConstructsRand,
						"derive streams with engine.Sim.NewStream instead")
				}
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pn := pkgNameOf(pass.TypesInfo, sel.X)
				if pn == nil || !callgraph.RandPackages[pn.Imported().Path()] {
					return true
				}
				obj := pass.TypesInfo.Uses[sel.Sel]
				if obj == nil {
					return true
				}
				if _, isType := obj.(*types.TypeName); isType {
					// Types like rand.Rand and rand.Source are how
					// injected sources are declared; only package-level
					// state and constructors are contract-relevant.
					return true
				}
				name := sel.Sel.Name
				if callgraph.RandConstructors[name] {
					if !inEngineNew {
						pass.Reportf(sel.Pos(),
							"rand.%s outside engine.New/NewStream: simulations must get sources from the engine (Sim.Rand, Sim.NewStream), not construct their own",
							name)
					}
					return true
				}
				pass.Reportf(sel.Pos(),
					"package-level rand.%s uses the process-global source: draw from engine.Sim.Rand() or an injected *rand.Rand instead",
					name)
				return true
			})
		}
	}
	return nil
}

// checkAmbientStreams flags package-level *rand.Rand variables.
func checkAmbientStreams(pass *analysis.Pass, file *ast.File) {
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				v, ok := pass.TypesInfo.Defs[name].(*types.Var)
				if !ok || !isRandStream(v.Type()) {
					continue
				}
				pass.Reportf(name.Pos(),
					"package-level rand stream %s: model streams must be engine.Sim.NewStream derivations threaded per object, not ambient package state",
					name.Name)
			}
		}
	}
}

// isRandStream reports whether t is *rand.Rand (math/rand or
// math/rand/v2).
func isRandStream(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Rand" && obj.Pkg() != nil && obj.Pkg().Name() == "rand"
}
