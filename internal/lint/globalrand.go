package lint

import (
	"go/ast"
	"go/types"

	"dcqcn/internal/lint/analysis"
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
// A package-level *rand.Rand in model code is flagged too: an ambient
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

// randPackages are the import paths whose package-level state is the
// process-global source.
var randPackages = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// randConstructors are the rand-source constructors only
// engine.New/NewStream may call.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
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
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pn := pkgNameOf(pass.TypesInfo, sel.X)
				if pn == nil || !randPackages[pn.Imported().Path()] {
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
				if randConstructors[name] {
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
