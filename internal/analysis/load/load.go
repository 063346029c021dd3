// Package load type-checks this module's packages for static
// analysis, using only the standard library and the go command.
//
// Module packages are parsed and type-checked from source in
// dependency order; packages outside the module (the standard
// library) are imported from compiler export data located with
// `go list -export`, exactly as go vet's driver does. The result is a
// set of analysis units — one per package, plus one per external test
// package — sharing a single token.FileSet and a consistent
// types.Package identity for every cross-package reference.
//
// An external test package (package x_test) is type-checked as go test
// compiles it: against x with its in-package test files, the same
// types.Package as x's own unit, so a hook declared in x's
// export_test.go resolves. Every module package it imports that itself
// imports x, directly or not, is checked again against that form of x,
// so a type of x reaching the test through one of them is the same
// type as x's own. That holds under any package pattern: module
// packages that only a test imports are listed and checked from
// source as well.
package load

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// Package is one analysis unit: a type-checked set of files. A module
// package with in-package test files yields a unit containing
// GoFiles+TestGoFiles; its external (_test package) files, if any,
// form a second unit with IsXTest set.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	IsXTest    bool

	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath   string
	Name         string
	Dir          string
	Standard     bool
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Module       *struct {
		Path      string
		GoVersion string
	}
	Error *struct{ Err string }
}

// Exports locates compiler export data for non-module packages via
// `go list -export`, batching and caching lookups. It is safe for
// concurrent use and usable on its own (the analysistest harness uses
// it to resolve testdata imports of the standard library).
type Exports struct {
	Dir string // working directory for the go command ("" = cwd)

	mu    sync.Mutex
	files map[string]string // import path -> export file ("" = known absent)
}

// NewExports returns an export-data locator running go commands in dir.
func NewExports(dir string) *Exports {
	return &Exports{Dir: dir, files: make(map[string]string)}
}

// Prefetch resolves export files for paths in one go command
// invocation. Unresolvable paths are recorded as absent.
func (e *Exports) Prefetch(paths []string) error {
	var missing []string
	e.mu.Lock()
	for _, p := range paths {
		if _, ok := e.files[p]; !ok {
			missing = append(missing, p)
		}
	}
	e.mu.Unlock()
	if len(missing) == 0 {
		return nil
	}
	args := append([]string{"list", "-e", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, missing...)
	cmd := exec.Command("go", args...)
	cmd.Dir = e.Dir
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("load: go %s: %w", strings.Join(args[:4], " "), err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, line := range strings.Split(strings.TrimSuffix(string(out), "\n"), "\n") {
		path, file, ok := strings.Cut(line, "\t")
		if ok {
			e.files[path] = file
		}
	}
	for _, p := range missing {
		if _, ok := e.files[p]; !ok {
			e.files[p] = ""
		}
	}
	return nil
}

// Lookup returns a reader over the export data for path, in the shape
// go/importer's gc lookup expects. Unknown paths fall back to a
// one-off go list call (transitive dependencies of prefetched
// packages resolve through here).
func (e *Exports) Lookup(path string) (io.ReadCloser, error) {
	e.mu.Lock()
	file, ok := e.files[path]
	e.mu.Unlock()
	if !ok {
		if err := e.Prefetch([]string{path}); err != nil {
			return nil, err
		}
		e.mu.Lock()
		file = e.files[path]
		e.mu.Unlock()
	}
	if file == "" {
		return nil, fmt.Errorf("load: no export data for %q", path)
	}
	return os.Open(file)
}

// Importer returns a types.Importer resolving every path through this
// locator's export data, sharing one package cache so type identity
// is consistent across every unit checked against it.
func (e *Exports) Importer(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "gc", e.Lookup)
}

// moduleImporter resolves module-internal imports to from-source
// packages (checking them on demand, so transitive dependencies get
// the same identity as direct ones) and everything else through
// export data.
type moduleImporter struct {
	l *Loader
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if _, ok := m.l.metas[path]; ok {
		return m.l.checkSource(path)
	}
	return m.l.gc.Import(path)
}

// xtestImporter resolves the imports of x's external test package:
// x itself to its test-augmented form, each module package that
// depends on x to a copy checked against that form (go test's
// "p [x.test]"), and everything else as moduleImporter does.
type xtestImporter struct {
	l     *Loader
	under string                    // x's import path
	pkgs  map[string]*types.Package // x and the copies checked so far
	deps  map[string]bool           // memo: does the package depend on x?
}

func (x *xtestImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := x.pkgs[path]; ok {
		return pkg, nil
	}
	meta, ok := x.l.metas[path]
	if !ok || !x.dependsOnUnder(path) {
		return (&moduleImporter{l: x.l}).Import(path)
	}
	files, err := x.l.parse(meta.Dir, meta.GoFiles)
	if err != nil {
		return nil, err
	}
	conf := x.l.config()
	conf.Importer = x
	pkg, err := conf.Check(path, x.l.Fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("load: %s [%s.test]: %w", path, x.under, err)
	}
	x.pkgs[path] = pkg
	return pkg, nil
}

// dependsOnUnder reports whether module package path imports x,
// directly or through other module packages.
func (x *xtestImporter) dependsOnUnder(path string) bool {
	if dep, ok := x.deps[path]; ok {
		return dep
	}
	x.deps[path] = false // an import cycle is a load error elsewhere
	dep := false
	if meta, ok := x.l.metas[path]; ok {
		for _, imp := range meta.Imports {
			if imp == x.under || x.dependsOnUnder(imp) {
				dep = true
				break
			}
		}
	}
	x.deps[path] = dep
	return dep
}

// Loader loads and type-checks module packages.
type Loader struct {
	Dir  string // module directory (working dir for go commands)
	Fset *token.FileSet

	exports   *Exports
	gc        types.Importer
	goVersion string
	files     map[string]*ast.File // absolute filename -> parsed file
	plain     map[string]*types.Package
	metas     map[string]*listPkg
}

// NewLoader creates a loader rooted at dir.
func NewLoader(dir string) *Loader {
	fset := token.NewFileSet()
	ex := NewExports(dir)
	return &Loader{
		Dir:     dir,
		Fset:    fset,
		exports: ex,
		gc:      ex.Importer(fset),
		files:   make(map[string]*ast.File),
		plain:   make(map[string]*types.Package),
		metas:   make(map[string]*listPkg),
	}
}

// Load lists patterns with the go command and returns one analysis
// unit per matched module package (GoFiles plus in-package test
// files) and one per external test package.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	targets, err := l.list(append([]string{"list", "-e", "-json"}, patterns...))
	if err != nil {
		return nil, err
	}
	// Module dependencies of the targets must type-check from source
	// too; -deps lists them (and the standard library, filtered below).
	deps, err := l.list(append([]string{"list", "-e", "-json", "-deps"}, patterns...))
	if err != nil {
		return nil, err
	}
	for _, p := range deps {
		if !p.Standard && p.Module != nil {
			l.metas[p.ImportPath] = p
		}
	}
	var modTargets []*listPkg
	for _, p := range targets {
		if p.Error != nil && p.Name == "" {
			return nil, fmt.Errorf("load: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Standard || p.Module == nil {
			continue
		}
		l.metas[p.ImportPath] = p
		modTargets = append(modTargets, p)
		if l.goVersion == "" && p.Module.GoVersion != "" {
			l.goVersion = "go" + strings.TrimPrefix(p.Module.GoVersion, "go")
		}
	}
	if len(modTargets) == 0 {
		return nil, fmt.Errorf("load: no module packages match %v", patterns)
	}
	// A test may import module packages that no matched package's own
	// code reaches (blockio's external test imports the root package).
	// List those with their dependencies too, so that they type-check
	// from source like the rest, against the test-augmented package
	// where they depend on it.
	var extra []string
	for _, p := range modTargets {
		for _, imps := range [][]string{p.TestImports, p.XTestImports} {
			for _, imp := range imps {
				_, ok := l.metas[imp]
				if !ok && (imp == p.Module.Path || strings.HasPrefix(imp, p.Module.Path+"/")) {
					extra = append(extra, imp)
				}
			}
		}
	}
	if len(extra) > 0 {
		slices.Sort(extra)
		more, err := l.list(append([]string{"list", "-e", "-json", "-deps"}, slices.Compact(extra)...))
		if err != nil {
			return nil, err
		}
		for _, p := range more {
			if _, ok := l.metas[p.ImportPath]; !ok && !p.Standard && p.Module != nil {
				l.metas[p.ImportPath] = p
			}
		}
	}
	// One batched lookup for every non-module import any unit needs.
	var std []string
	for _, p := range l.metas {
		for _, imps := range [][]string{p.Imports, p.TestImports, p.XTestImports} {
			for _, imp := range imps {
				if _, ok := l.metas[imp]; !ok && imp != "C" && imp != p.ImportPath {
					std = append(std, imp)
				}
			}
		}
	}
	if err := l.exports.Prefetch(std); err != nil {
		return nil, err
	}

	var units []*Package
	for _, p := range modTargets {
		unit, err := l.checkUnit(p, p.Name, append(p.GoFiles, p.TestGoFiles...), nil)
		if err != nil {
			return nil, err
		}
		units = append(units, unit)
		if len(p.XTestGoFiles) > 0 {
			xunit, err := l.checkUnit(p, p.Name+"_test", p.XTestGoFiles, unit.Types)
			if err != nil {
				return nil, err
			}
			units = append(units, xunit)
		}
	}
	return units, nil
}

// list runs one go list command and decodes its JSON stream.
func (l *Loader) list(args []string) ([]*listPkg, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list: %w", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	var pkgs []*listPkg
	for {
		p := new(listPkg)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// checkSource type-checks the plain (non-test) form of a module
// package from source, memoized; cross-package imports inside the
// module resolve through here so every unit sees one identity per
// package.
func (l *Loader) checkSource(path string) (*types.Package, error) {
	if pkg, ok := l.plain[path]; ok {
		return pkg, nil
	}
	meta, ok := l.metas[path]
	if !ok {
		return l.gc.Import(path)
	}
	files, err := l.parse(meta.Dir, meta.GoFiles)
	if err != nil {
		return nil, err
	}
	conf := l.config()
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("load: %s: %w", path, err)
	}
	l.plain[path] = pkg
	return pkg, nil
}

// checkUnit builds one analysis unit over filenames, first making sure
// every module import has its plain form checked. under is nil for a
// package's own unit; for its external test package it is the
// package's test-augmented form, which the test's imports resolve to.
func (l *Loader) checkUnit(meta *listPkg, name string, filenames []string, under *types.Package) (*Package, error) {
	if len(meta.CgoFiles) > 0 {
		return nil, fmt.Errorf("load: %s: cgo packages are not supported", meta.ImportPath)
	}
	for _, imps := range [][]string{meta.Imports, meta.TestImports, meta.XTestImports} {
		for _, imp := range imps {
			if _, ok := l.metas[imp]; ok {
				if _, err := l.checkSource(imp); err != nil {
					return nil, err
				}
			}
		}
	}
	files, err := l.parse(meta.Dir, filenames)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := l.config()
	path := meta.ImportPath
	xtest := under != nil
	if xtest {
		path += "_test"
		conf.Importer = &xtestImporter{
			l:     l,
			under: meta.ImportPath,
			pkgs:  map[string]*types.Package{meta.ImportPath: under},
			deps:  make(map[string]bool),
		}
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: %s: %w", path, err)
	}
	return &Package{
		ImportPath: meta.ImportPath,
		Name:       name,
		Dir:        meta.Dir,
		IsXTest:    xtest,
		Files:      files,
		Types:      pkg,
		Info:       info,
	}, nil
}

// config assembles the shared type-checker configuration.
func (l *Loader) config() types.Config {
	return types.Config{
		Importer:  &moduleImporter{l: l},
		GoVersion: l.goVersion,
	}
}

// parse parses dir/filenames with comments, memoized on the absolute
// path so a file shared between the plain and test-augmented forms of
// a package is parsed once.
func (l *Loader) parse(dir string, filenames []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(filenames))
	for _, fn := range filenames {
		abs := fn
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(dir, fn)
		}
		if f, ok := l.files[abs]; ok {
			files = append(files, f)
			continue
		}
		f, err := parser.ParseFile(l.Fset, abs, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		l.files[abs] = f
		files = append(files, f)
	}
	return files, nil
}
