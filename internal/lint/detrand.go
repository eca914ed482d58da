package lint

import (
	"go/ast"
	"go/types"
)

// Detrand enforces deterministic randomness: every RNG in non-test code
// must be injected (*rand.Rand parameters or struct fields) or explicitly
// seeded via rand.New(rand.NewSource(seed)). The package-level math/rand
// functions draw from a process-global, randomly-seeded source, which
// silently breaks run-to-run reproducibility of the simulated populations.
//
// It also flags a *rand.Rand captured by a goroutine literal: *rand.Rand
// is not safe for concurrent use, and even under a mutex the draw order
// would depend on goroutine scheduling — exactly the nondeterminism the
// detpar per-index seed derivation exists to avoid. Pass each goroutine
// its own derived RNG (detpar.Rand / detpar.Map) instead.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc:  "flags package-level math/rand draws (rand.Intn, ...), rand.Seed, and *rand.Rand values captured by goroutine literals in non-test code",
	Run:  runDetrand,
}

// detrandDenied is the set of math/rand package-level functions that use
// (or mutate) the global source. Constructors — New, NewSource, NewZipf —
// are the approved pattern and stay legal.
var detrandDenied = map[string]bool{
	"Int":         true,
	"Intn":        true,
	"Int31":       true,
	"Int31n":      true,
	"Int63":       true,
	"Int63n":      true,
	"Uint32":      true,
	"Uint64":      true,
	"Float32":     true,
	"Float64":     true,
	"NormFloat64": true,
	"ExpFloat64":  true,
	"Perm":        true,
	"Shuffle":     true,
	"Read":        true,
	"Seed":        true,
}

// isMathRandPath matches both generations of the stdlib rand package.
func isMathRandPath(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

func runDetrand(p *Pass) {
	info := p.Info()
	for _, f := range p.Pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || !isMathRandPath(fn.Pkg().Path()) {
				return true
			}
			// Methods on an injected or locally seeded *rand.Rand share names
			// with the global draws (Intn, Float64, ...); only the package-
			// level functions touch the global source.
			if fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			if detrandDenied[fn.Name()] {
				p.Reportf(call.Pos(),
					"rand.%s draws from the global math/rand source; inject a *rand.Rand or seed one with rand.New(rand.NewSource(seed))", fn.Name())
			}
			return true
		})
		checkGoroutineCaptures(p, f)
	}
}

// isRandRand reports whether t is *rand.Rand (either rand generation).
func isRandRand(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Rand" && obj.Pkg() != nil && isMathRandPath(obj.Pkg().Path())
}

// checkGoroutineCaptures reports *rand.Rand variables that a `go func(){}`
// literal closes over. Objects declared inside the literal itself — its
// own params or locals, including RNGs it derives for itself — are fine;
// only free variables shared with the spawning goroutine are flagged.
func checkGoroutineCaptures(p *Pass, f *File) {
	info := p.Info()
	ast.Inspect(f.AST, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		reported := map[types.Object]bool{}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || reported[obj] || !isRandRand(obj.Type()) {
				return true
			}
			v, isVar := obj.(*types.Var)
			if !isVar || v.IsField() {
				return true
			}
			// Declared within the literal (own param/local) — not a capture.
			if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
				return true
			}
			reported[obj] = true
			p.Reportf(id.Pos(),
				"*rand.Rand %q is captured by a goroutine literal; draws become scheduling-dependent — derive a per-goroutine RNG (detpar.Rand / detpar.Map) instead", id.Name)
			return true
		})
		return true
	})
}
