// Package lint implements cdelint, the project-specific static-analysis
// suite. It turns the repository's determinism, context-flow and
// wire-safety conventions into machine-checked invariants:
//
//   - walltime:   wall-clock reads stay behind the clock.Clock abstraction
//   - detrand:    math/rand is always injected or explicitly seeded
//   - ctxflow:    blocking exported APIs accept and use a context.Context
//   - mutexcopy:  no value receivers on types guarding state with a mutex
//   - goleak:     goroutines carry a visible cancellation/completion signal
//   - wiresafe:   wire-buffer indexing is preceded by a bounds check
//   - hotalloc:   //cdelint:hotpath functions (and their static callees)
//     stay free of heap-allocating constructs
//   - exhaustive: switches over enum-like const sets cover every member or
//     carry a default that fails loudly
//   - simtime:    nothing reachable from the simulation packages touches
//     the wall clock, even through module-internal helpers
//   - errflow:    errors crossing package boundaries wrap with %w, and
//     wire/IO paths never discard error returns
//   - simgo:      the simulation packages start no goroutines outside the
//     annotated scheduler boundaries
//
// The engine is deliberately stdlib-only (go/ast, go/parser, go/types,
// go/importer): the repository has no module dependencies and the linter
// must not add one. Since PR 6 the engine type-checks the whole module —
// module-internal imports are resolved from the source tree and standard-
// library imports through the stdlib source importer — so analyzers see
// object identity, signatures and cross-package call structure instead of
// raw syntax, and can exchange facts about objects through the Tree's
// fact store. `//cdelint:allow <analyzer>[,<analyzer>...] <reason>` is the
// escape hatch for deliberate exceptions.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// AllowPrefix introduces a suppression comment. The full form is
// `//cdelint:allow <analyzer>[,<analyzer>...] <reason>`; it silences the
// named analyzers on the comment's line and on the line that follows it.
// A reason is mandatory — an allow comment without one is itself a
// finding, as is an unknown analyzer name.
const AllowPrefix = "cdelint:allow"

// HotpathMarker annotates a function whose static call closure must stay
// free of heap-allocating constructs; see the hotalloc analyzer.
const HotpathMarker = "cdelint:hotpath"

// Diagnostic is one finding, positioned in the source tree.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the file:line:col style editors parse.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// File is one parsed non-test source file.
type File struct {
	Path string
	AST  *ast.File
	// allow maps a line number to the analyzer names suppressed there.
	allow map[int][]string
}

// allowedAt reports whether analyzer is suppressed on line.
func (f *File) allowedAt(line int, analyzer string) bool {
	for _, name := range f.allow[line] {
		if name == analyzer || name == "all" {
			return true
		}
	}
	return false
}

// Package is a directory of non-test files belonging to one Go package,
// parsed and type-checked.
type Package struct {
	Dir        string // filesystem directory
	Name       string // package name from the source
	RelPath    string // slash-separated path relative to the module root
	ImportPath string // module-qualified import path ("" outside a module)
	Files      []*File

	// Types is the type-checked package object; nil only if checking
	// failed catastrophically. TypeErrors collects soft type errors —
	// the engine analyzes what it can rather than refusing the tree.
	Types      *types.Package
	TypeErrors []error

	// implicit marks a package loaded only as a dependency of a lint
	// target: analyzers traverse it (facts, call graph) but findings in
	// it are not reported.
	implicit bool
}

// Analyzer is one named check run over every loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass gives an analyzer access to one package plus the whole-program
// view: merged type information, the fact store and the module call graph.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Tree     *Tree

	diags *[]Diagnostic
}

// Info returns the merged type information covering every loaded file.
func (p *Pass) Info() *types.Info { return p.Tree.Info }

// Reportf records a finding at pos unless an allow comment suppresses it
// or the position falls in an implicitly loaded dependency package.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Pkg.implicit {
		return
	}
	position := p.Fset.Position(pos)
	for _, f := range p.Pkg.Files {
		if f.Path == position.Filename && f.allowedAt(position.Line, p.Analyzer.Name) {
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressed reports whether analyzer `name` is allow-listed at pos; used
// by fact-generating analyzers to keep annotated exceptions from
// propagating through the call graph.
func (t *Tree) suppressed(pos token.Pos, name string) bool {
	position := t.Fset.Position(pos)
	pkg := t.byFile[position.Filename]
	if pkg == nil {
		return false
	}
	for _, f := range pkg.Files {
		if f.Path == position.Filename {
			return f.allowedAt(position.Line, name)
		}
	}
	return false
}

// ExportFact attaches a named fact to obj, visible to later ImportFact
// calls from any package — the cross-package channel for analyses like
// simtime's wall-clock reachability.
func (p *Pass) ExportFact(obj types.Object, name string, val any) {
	p.Tree.facts[factKey{obj, name}] = val
}

// ImportFact retrieves a fact exported for obj under name.
func (p *Pass) ImportFact(obj types.Object, name string) (any, bool) {
	v, ok := p.Tree.facts[factKey{obj, name}]
	return v, ok
}

type factKey struct {
	obj  types.Object
	name string
}

// Target selects a directory to lint. Non-recursive targets lint exactly
// that directory; recursive targets (the `dir/...` form) walk the subtree.
type Target struct {
	Dir       string
	Recursive bool
}

// Tree is a loaded, type-checked source tree ready to be analyzed.
type Tree struct {
	Fset *token.FileSet
	// Packages holds the lint targets plus any module-internal
	// dependencies loaded to type-check them, in dependency order
	// (every package appears after its module-internal imports).
	Packages []*Package
	// Info merges the type information of every loaded file; positions
	// are unique across the tree, so one map set serves all packages.
	Info *types.Info
	// ModulePath is the module path from go.mod ("" when absent).
	ModulePath string

	moduleRoot   string
	byImportPath map[string]*Package
	byRelPath    map[string]*Package
	byFile       map[string]*Package
	checking     map[string]bool
	typeErrs     []error

	// preDiags holds engine-level findings discovered during loading:
	// malformed allow comments and unknown analyzer names in them.
	preDiags []Diagnostic

	facts map[factKey]any
	memo  map[string]any
}

// memoize caches an expensive whole-tree computation (call graph, hotpath
// closure, wall-clock facts) under key for the Tree's lifetime.
func memoize[T any](t *Tree, key string, build func() T) T {
	if v, ok := t.memo[key]; ok {
		return v.(T)
	}
	v := build()
	t.memo[key] = v
	return v
}

// sharedFset is the process-wide file set. Sharing one across Load calls
// lets the stdlib source importer type-check the standard library once per
// process instead of once per loaded tree.
var sharedFset = token.NewFileSet()

var (
	stdOnce sync.Once
	stdImp  types.ImporterFrom
	stdMu   sync.Mutex
)

// stdImporter returns the shared standard-library importer, which
// type-checks stdlib packages from $GOROOT/src.
func stdImporter() types.ImporterFrom {
	stdOnce.Do(func() {
		// The source importer shells out to the cgo tool for packages with
		// cgo files; forcing CgoEnabled off selects the pure-Go variants
		// (net's Go resolver, etc.), which type-check hermetically.
		build.Default.CgoEnabled = false
		stdImp = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
	})
	return stdImp
}

// FindModuleRoot walks upward from dir to the nearest directory holding a
// go.mod, which anchors the RelPath of every loaded package.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// readModulePath extracts the module path from moduleRoot's go.mod; it
// returns "" (not an error) when the file is missing or has no module
// directive, which disables module-internal import resolution.
func readModulePath(moduleRoot string) string {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Load parses and type-checks every non-test Go file reachable from
// targets, plus any module-internal packages they import. Package paths
// are recorded relative to moduleRoot so analyzers can match on stable
// locations like "internal/clock" regardless of where the tree lives.
func Load(moduleRoot string, targets []Target) (*Tree, error) {
	tree := &Tree{
		Fset:       sharedFset,
		ModulePath: readModulePath(moduleRoot),
		moduleRoot: moduleRoot,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Instances:  map[*ast.Ident]types.Instance{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Implicits:  map[ast.Node]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
		byImportPath: map[string]*Package{},
		byRelPath:    map[string]*Package{},
		byFile:       map[string]*Package{},
		checking:     map[string]bool{},
		facts:        map[factKey]any{},
		memo:         map[string]any{},
	}

	var roots []*Package
	seen := map[string]bool{}
	for _, tgt := range targets {
		dirs, err := expandTarget(tgt)
		if err != nil {
			return nil, err
		}
		for _, dir := range dirs {
			abs, err := filepath.Abs(dir)
			if err != nil {
				return nil, err
			}
			if seen[abs] {
				continue
			}
			seen[abs] = true
			pkg, err := tree.loadDir(abs, false)
			if err != nil {
				return nil, err
			}
			if pkg != nil {
				roots = append(roots, pkg)
			}
		}
	}
	// Type-check targets in a stable order; checking appends each package
	// (dependencies first) to tree.Packages as it completes.
	sort.Slice(roots, func(i, j int) bool { return roots[i].RelPath < roots[j].RelPath })
	for _, pkg := range roots {
		if err := tree.check(pkg); err != nil {
			return nil, err
		}
	}
	return tree, nil
}

// expandTarget resolves a Target to the concrete directories it covers.
func expandTarget(tgt Target) ([]string, error) {
	if !tgt.Recursive {
		return []string{tgt.Dir}, nil
	}
	var dirs []string
	err := filepath.WalkDir(tgt.Dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != tgt.Dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// loadDir parses the non-test Go files of one directory; it returns nil
// when the directory holds no lintable Go files. Re-loading a directory
// returns the cached package (promoting it to a lint target when implicit
// is false).
func (t *Tree) loadDir(dir string, implicit bool) (*Package, error) {
	rel, err := filepath.Rel(t.moduleRoot, dir)
	if err != nil {
		return nil, err
	}
	relPath := filepath.ToSlash(rel)
	if pkg, ok := t.byRelPath[relPath]; ok {
		if !implicit {
			pkg.implicit = false
		}
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: dir, RelPath: relPath, implicit: implicit}
	if t.ModulePath != "" {
		pkg.ImportPath = t.ModulePath
		if relPath != "." {
			pkg.ImportPath += "/" + relPath
		}
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		astFile, err := parser.ParseFile(t.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", path, err)
		}
		f := &File{Path: path, AST: astFile, allow: map[int][]string{}}
		t.collectAllows(f)
		pkg.Files = append(pkg.Files, f)
		t.byFile[path] = pkg
		if pkg.Name == "" {
			pkg.Name = astFile.Name.Name
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	t.byRelPath[relPath] = pkg
	if pkg.ImportPath != "" {
		t.byImportPath[pkg.ImportPath] = pkg
	}
	return pkg, nil
}

// check type-checks pkg (once), resolving module-internal imports through
// the tree and everything else through the stdlib source importer. It
// appends pkg to t.Packages after its dependencies, yielding a dependency-
// ordered package list for fact propagation.
func (t *Tree) check(pkg *Package) error {
	if pkg.Types != nil || t.checking[pkg.RelPath] {
		return nil
	}
	t.checking[pkg.RelPath] = true
	defer delete(t.checking, pkg.RelPath)

	conf := types.Config{
		Importer: &treeImporter{tree: t},
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	files := make([]*ast.File, len(pkg.Files))
	for i, f := range pkg.Files {
		files[i] = f.AST
	}
	path := pkg.ImportPath
	if path == "" {
		path = pkg.RelPath
	}
	// Check records everything it can even when it returns an error;
	// type errors were already captured per-package above.
	tpkg, _ := conf.Check(path, t.Fset, files, t.Info)
	pkg.Types = tpkg
	t.Packages = append(t.Packages, pkg)
	return nil
}

// treeImporter resolves imports for type-checking: module-internal paths
// load (and check) the corresponding source directory, the standard
// library goes through the shared source importer, and anything
// unresolvable degrades to an empty placeholder package so analysis can
// proceed on partial information.
type treeImporter struct {
	tree *Tree
}

func (ti *treeImporter) Import(path string) (*types.Package, error) {
	return ti.ImportFrom(path, "", 0)
}

func (ti *treeImporter) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	t := ti.tree
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := t.moduleRel(path); ok {
		if pkg, err := t.loadDir(filepath.Join(t.moduleRoot, filepath.FromSlash(rel)), true); err == nil && pkg != nil {
			if err := t.check(pkg); err == nil && pkg.Types != nil {
				return pkg.Types, nil
			}
		}
		return placeholder(path), nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	pkg, err := stdImporter().Import(path)
	if err != nil || pkg == nil {
		t.typeErrs = append(t.typeErrs, fmt.Errorf("lint: importing %s: %w", path, err))
		return placeholder(path), nil
	}
	return pkg, nil
}

// moduleRel maps a module-internal import path to its directory relative
// to the module root.
func (t *Tree) moduleRel(path string) (string, bool) {
	if t.ModulePath == "" {
		return "", false
	}
	if path == t.ModulePath {
		return ".", true
	}
	if rel, ok := strings.CutPrefix(path, t.ModulePath+"/"); ok {
		return rel, true
	}
	return "", false
}

// placeholder builds an empty, complete package for an unresolvable
// import; member uses will carry invalid types, which analyzers treat as
// "unknown" rather than erroring out.
func placeholder(path string) *types.Package {
	name := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		name = path[i+1:]
	}
	pkg := types.NewPackage(path, name)
	pkg.MarkComplete()
	return pkg
}

// knownAnalyzerNames is the set accepted in allow comments.
var knownAnalyzerNames = func() map[string]bool {
	m := map[string]bool{"all": true, "cdelint": true}
	for _, a := range Analyzers() {
		m[a.Name] = true
	}
	return m
}()

// collectAllows indexes the file's `//cdelint:allow` comments by line. It
// records a pre-diagnostic for an allow comment lacking a reason and for
// each unknown analyzer name — a typo'd name would otherwise silently
// suppress nothing and lull the author into believing it did.
func (t *Tree) collectAllows(f *File) {
	for _, group := range f.AST.Comments {
		for _, c := range group.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, AllowPrefix) {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(text, AllowPrefix))
			pos := t.Fset.Position(c.Pos())
			if len(fields) < 2 {
				t.preDiags = append(t.preDiags, Diagnostic{
					Pos:      pos,
					Analyzer: "cdelint",
					Message:  "allow comment needs an analyzer name and a reason: //cdelint:allow <analyzer>[,<analyzer>] <reason>",
				})
				continue
			}
			for _, name := range strings.Split(fields[0], ",") {
				name = strings.TrimSpace(name)
				if name == "" {
					continue
				}
				if !knownAnalyzerNames[name] {
					t.preDiags = append(t.preDiags, Diagnostic{
						Pos:      pos,
						Analyzer: "cdelint",
						Message:  fmt.Sprintf("allow comment names unknown analyzer %q (known: %s)", name, strings.Join(sortedAnalyzerNames(), ", ")),
					})
					continue
				}
				// Suppress on the comment's own line (end-of-line form) and
				// on the line that follows (standalone form).
				f.allow[pos.Line] = append(f.allow[pos.Line], name)
				f.allow[pos.Line+1] = append(f.allow[pos.Line+1], name)
			}
		}
	}
}

func sortedAnalyzerNames() []string {
	names := make([]string, 0, len(knownAnalyzerNames))
	for name := range knownAnalyzerNames {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Run applies analyzers to every loaded package — lint targets and their
// module-internal dependencies, in dependency order so cross-package
// facts flow bottom-up — and returns the findings sorted by position.
// Findings are only reported in target packages.
func (t *Tree) Run(analyzers []*Analyzer) []Diagnostic {
	diags := append([]Diagnostic(nil), t.preDiags...)
	for _, a := range analyzers {
		for _, pkg := range t.Packages {
			a.Run(&Pass{Analyzer: a, Fset: t.Fset, Pkg: pkg, Tree: t, diags: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Walltime, Detrand, Ctxflow, Mutexcopy, Goleak, Wiresafe,
		Hotalloc, Exhaustive, Simtime, Errflow, Simgo,
	}
}

// Select returns the analyzers whose names appear in the comma-separated
// list; an empty list selects the full suite. Unknown names error.
func Select(list string) ([]*Analyzer, error) {
	if strings.TrimSpace(list) == "" {
		return Analyzers(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// --- typed helpers shared by the analyzers ---

// pkgFunc resolves call to a function of the package with the given
// import path ("time", "math/rand", ...) and returns its name. Resolution
// is type-based, so aliased imports and shadowing are handled exactly.
func pkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	return fn.Name(), true
}

// staticCallee resolves a call expression to the function or method it
// statically invokes: a plain function, a package-qualified function, or
// a method called on a concrete (non-interface) receiver. Calls through
// interfaces and function values return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal || types.IsInterface(sel.Recv()) {
				return nil
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// FuncInfo describes one module function declaration.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	File *File
	// Hotpath is set when the declaration's doc comment carries the
	// //cdelint:hotpath marker.
	Hotpath bool
}

// moduleFuncs indexes every function declaration of every loaded package
// by its type object.
func moduleFuncs(t *Tree) map[*types.Func]*FuncInfo {
	return memoize(t, "lint.funcs", func() map[*types.Func]*FuncInfo {
		funcs := map[*types.Func]*FuncInfo{}
		for _, pkg := range t.Packages {
			for _, f := range pkg.Files {
				for _, decl := range f.AST.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					obj, ok := t.Info.Defs[fd.Name].(*types.Func)
					if !ok {
						continue
					}
					funcs[obj] = &FuncInfo{
						Obj:     obj,
						Decl:    fd,
						Pkg:     pkg,
						File:    f,
						Hotpath: hasMarker(fd.Doc, HotpathMarker),
					}
				}
			}
		}
		return funcs
	})
}

// hasMarker reports whether the comment group contains a line comment
// whose content is exactly the given marker.
func hasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == marker {
			return true
		}
	}
	return false
}

// staticCallees returns fn's statically resolvable callees that are
// declared in the module, deduplicated, in source order.
func staticCallees(t *Tree, funcs map[*types.Func]*FuncInfo, fn *FuncInfo) []*types.Func {
	var out []*types.Func
	seen := map[*types.Func]bool{}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(t.Info, call)
		if callee == nil || seen[callee] {
			return true
		}
		if _, inModule := funcs[callee]; inModule {
			seen[callee] = true
			out = append(out, callee)
		}
		return true
	})
	return out
}

// sortedFuncs returns the module functions in deterministic source order.
func sortedFuncs(funcs map[*types.Func]*FuncInfo) []*FuncInfo {
	out := make([]*FuncInfo, 0, len(funcs))
	for _, fi := range funcs {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// funcDisplayName renders a function name for diagnostics, qualifying
// methods with their receiver type and functions with their package.
func funcDisplayName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
