// Package lint checks two project rules over every package of the
// module, test files included, as part of go test:
//
//   - trerr: an error is classified with errors.Is, never compared with
//     a sentinel (a package-level error variable) by ==, != or switch,
//     and fmt.Errorf wraps an error operand with %w. Either slip hides a
//     wrapped sentinel (ErrBadInterval and the rest) from errors.Is.
//   - ctxflow: context.Background() or TODO() never replaces a
//     context.Context parameter in scope, and TODO() is never shipped.
//     A dropped context makes a long index build unabortable.
//
// The go command loads the packages. `go list -test -deps -export`
// names the files of each package's test variant and of its external
// test, and the compiled export data of every package each one
// imports, so every unit type-checks on its own and an external test
// sees the hooks of the package's export_test.go.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
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
	"testing"
)

// TestModuleFollowsRules checks every package of the module with both
// rules; each finding fails the test.
func TestModuleFollowsRules(t *testing.T) {
	fset, units := load(t, "../..")
	if len(units) < 30 { // 38 today: a loader that lost packages would pass silently
		t.Fatalf("loaded %d units, want one per package and external test", len(units))
	}
	for _, f := range check(fset, units) {
		t.Error(f)
	}
}

// TestRulesCatchInjected checks a scratch module that breaks each rule
// once, and trerr again in a second package that imports the first. The
// external test hands a value from the second package to a hook only
// export_test.go declares: it type-checks only against test variants.
func TestRulesCatchInjected(t *testing.T) {
	t.Parallel()
	checkScratch(t, map[string]string{
		"scratch.go": `package scratch

import (
	"context"
	"errors"
)

var ErrGone = errors.New("gone")

func isGone(err error) bool { return err == ErrGone } // want trerr
func deadline(ctx context.Context) error { return context.Background().Err() } // want ctxflow

type Code int

func name(c Code) int { return int(c) }
`,
		"export_test.go": `package scratch

var Name = name
`,
		"codes/codes.go": `package codes

import "scratch"

func Default() scratch.Code { return 7 }
func IsGone(err error) bool { return err == scratch.ErrGone } // want trerr
`,
		"scratch_test.go": `package scratch_test

import (
	"scratch"
	"scratch/codes"
)

var _ = scratch.Name(codes.Default())
`,
	})
}

// TestTrerr checks each form trerr flags beside each form it allows,
// in package code and in a test file.
func TestTrerr(t *testing.T) {
	t.Parallel()
	checkScratch(t, map[string]string{
		"scratch.go": `package scratch

import (
	"errors"
	"fmt"
)

var ErrGone = errors.New("gone")

func isGone(err error) bool { return err == ErrGone } // want trerr
func notGone(err error) bool { return ErrGone != err } // want trerr

func classify(err error) int {
	switch err {
	case nil:
		return 0
	case ErrGone: // want trerr
		return 1
	}
	return 2
}

func wrap(err error) error { return fmt.Errorf("wrap: %v", err) } // want trerr
func wrapped(err error) error { return fmt.Errorf("op %[1]d: %[2]w", 7, err) }
func same(a, b error) bool { return a == nil || a == b }

type gone struct{}

func (gone) Error() string { return "gone" }
func (gone) Is(target error) bool { return target == ErrGone }
`,
		"scratch_test.go": `package scratch

func testGone(err error) bool { return err == ErrGone } // want trerr
`,
	})
}

// TestCtxFlow checks each form ctxflow flags beside each form it
// allows, in a test file and package main too, where it does not look.
func TestCtxFlow(t *testing.T) {
	t.Parallel()
	checkScratch(t, map[string]string{
		"scratch.go": `package scratch

import "context"

func run(ctx context.Context) error { return ctx.Err() }
func dropped(ctx context.Context) error { return run(context.Background()) } // want ctxflow
func inLiteral(ctx context.Context) func() error { return func() error { return run(context.Background()) } } // want ctxflow
func todo() error { return run(context.TODO()) } // want ctxflow
func todoInScope(ctx context.Context) error { return run(context.TODO()) } // want ctxflow
func bridge() error { return run(context.Background()) }
func blank(_ context.Context) error { return run(context.Background()) }
`,
		"scratch_test.go": `package scratch

import "context"

func inTest(ctx context.Context) error { return run(context.TODO()) }
`,
		"cmd/tool/main.go": `package main

import "context"

func helper(ctx context.Context) error { return context.TODO().Err() }
func main() { _ = helper(context.Background()) }
`,
	})
}

// checkScratch writes files into a module named scratch and checks it.
// A line marked "// want <rule>" must be reported by that rule, and no
// other line may be.
func checkScratch(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module scratch\n\ngo 1.24\n"
	var want []string
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(src, "\n") {
			if _, rule, ok := strings.Cut(line, "// want "); ok {
				want = append(want, fmt.Sprintf("%s:%d: [%s]", filepath.ToSlash(name), i+1, rule))
			}
		}
	}
	var got []string
	for _, f := range check(load(t, dir)) {
		got = append(got, f[:strings.Index(f, "]")+1])
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// unit is one type-checked package: a module package with its
// in-package test files, or an external test package.
type unit struct {
	dir   string // the module's root, for relative file names
	files []*ast.File
	info  *types.Info
}

// listed is what the loader reads of one package from go list.
type listed struct {
	ImportPath, Dir, Export, ForTest string
	GoFiles                          []string
	ImportMap                        map[string]string
	Module                           *struct{ Dir, GoVersion string }
	Error                            *struct{ Err string }
}

// load lists the module's packages under dir with their tests and
// type-checks each unit. Each import resolves through the unit's
// ImportMap to the export data go list compiled for it, so an external
// test imports the test variant of its package.
func load(t *testing.T, dir string) (*token.FileSet, []unit) {
	t.Helper()
	cmd := exec.Command("go", "list", "-e", "-test", "-deps", "-export",
		"-json=ImportPath,Dir,Export,ForTest,GoFiles,ImportMap,Module,Error", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []*listed
	exports := make(map[string]string) // ImportPath -> export data file
	tested := make(map[string]bool)    // packages with a test binary
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			t.Fatalf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
		exports[p.ImportPath] = p.Export
		tested[p.ForTest] = true
	}
	fset := token.NewFileSet()
	// Units that import only plain packages share one importer, so
	// each export file is decoded once for all of them.
	plain := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	var units []unit
	for _, p := range pkgs {
		base, _, variant := strings.Cut(p.ImportPath, " [")
		_, hasVariant := exports[base+" ["+base+".test]"]
		switch {
		case p.Module == nil: // the standard library
			continue
		case variant && base != p.ForTest && base != p.ForTest+"_test":
			continue // a copy recompiled for another package's test
		case !variant && (hasVariant || strings.HasSuffix(base, ".test") && tested[strings.TrimSuffix(base, ".test")]):
			continue // checked as its test variant, or a generated test main
		case p.Error != nil:
			t.Errorf("%s: %s", p.ImportPath, p.Error.Err)
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		imp := plain
		if len(p.ImportMap) > 0 {
			imp = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
				if m, ok := p.ImportMap[path]; ok {
					path = m
				}
				return os.Open(exports[path])
			})
		}
		conf := types.Config{
			Importer:  imp,
			GoVersion: "go" + p.Module.GoVersion,
		}
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		if _, err := conf.Check(base, fset, files, info); err != nil {
			t.Errorf("type-checking %s: %v", p.ImportPath, err)
			continue
		}
		units = append(units, unit{dir: p.Module.Dir, files: files, info: info})
	}
	return fset, units
}

// check runs trerr over every file and ctxflow over the files that are
// neither a test file nor in package main, where contexts are born. It
// returns the findings sorted, as "file:line: [rule] message" with file
// relative to the module's root.
func check(fset *token.FileSet, units []unit) []string {
	var out []string
	for _, u := range units {
		at := func(rule string) report {
			return func(pos token.Pos, format string, args ...any) {
				p := fset.Position(pos)
				name, _ := filepath.Rel(u.dir, p.Filename)
				out = append(out, fmt.Sprintf("%s:%d: [%s] %s", filepath.ToSlash(name), p.Line, rule, fmt.Sprintf(format, args...)))
			}
		}
		var src []*ast.File
		for _, f := range u.files {
			if f.Name.Name != "main" && !strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go") {
				src = append(src, f)
			}
		}
		trerr(u.files, u.info, at("trerr"))
		ctxflow(src, u.info, at("ctxflow"))
	}
	slices.Sort(out)
	return out
}

// report records one finding at pos.
type report func(pos token.Pos, format string, args ...any)

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// trerr reports each == or != between an error and a sentinel, except
// inside an Is(error) bool method, where that equality is the
// definition; each switch case that names a sentinel under an error
// tag; and each fmt.Errorf whose constant format has no %w verb while
// an error operand is present.
func trerr(files []*ast.File, info *types.Info, report report) {
	isError := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		return ok && !tv.IsNil() && types.Implements(tv.Type, errorType)
	}
	sentinel := func(e ast.Expr) bool {
		var id *ast.Ident
		switch e := e.(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		default:
			return false
		}
		v, ok := info.Uses[id].(*types.Var)
		return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() && types.Implements(v.Type(), errorType)
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, _ := decl.(*ast.FuncDecl)
			isMethod := fd != nil && fd.Recv != nil && fd.Name.Name == "Is" &&
				fd.Type.Params.NumFields() == 1 && fd.Type.Results.NumFields() == 1
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if (n.Op != token.EQL && n.Op != token.NEQ) || isMethod {
						return true
					}
					for _, pair := range [2][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
						if sentinel(pair[0]) && isError(pair[1]) {
							hint := "errors.Is(%s, %s)"
							if n.Op == token.NEQ {
								hint = "!" + hint
							}
							report(n.OpPos, "comparison with sentinel %s breaks on wrapped errors: use "+hint,
								types.ExprString(pair[0]), types.ExprString(pair[1]), types.ExprString(pair[0]))
							break
						}
					}
				case *ast.SwitchStmt:
					if n.Tag == nil || !isError(n.Tag) {
						return true
					}
					for _, clause := range n.Body.List {
						for _, e := range clause.(*ast.CaseClause).List {
							if sentinel(e) {
								name := types.ExprString(e)
								report(e.Pos(), "switch compares error against sentinel %s by value: use if errors.Is(err, %s) instead", name, name)
							}
						}
					}
				case *ast.CallExpr:
					if funcName(info, n, "fmt") != "Errorf" || len(n.Args) < 2 {
						return true
					}
					format := info.Types[n.Args[0]].Value
					if format == nil || format.Kind() != constant.String || hasWrapVerb(constant.StringVal(format)) {
						return true
					}
					for _, arg := range n.Args[1:] {
						if isError(arg) {
							report(n.Pos(), "fmt.Errorf formats %s without %%w: the wrapped sentinel becomes invisible to errors.Is", types.ExprString(arg))
							break
						}
					}
				}
				return true
			})
		}
	}
}

// hasWrapVerb reports whether format holds a %w (or %[n]w) verb.
func hasWrapVerb(format string) bool {
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		for i++; i < len(format) && strings.IndexByte("#+- 0123456789.*[]", format[i]) >= 0; i++ {
		}
		if i < len(format) && format[i] == 'w' {
			return true
		}
	}
	return false
}

// ctxflow reports each context.Background() or TODO() call inside a
// function, or a function literal within one, that has a named,
// non-blank context.Context parameter, and every other TODO(). A
// Background() bridge in a wrapper with no context parameter (NewCluster
// calling NewClusterContext) is not reported.
func ctxflow(files []*ast.File, info *types.Info, report report) {
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := funcName(info, call, "context")
			if name != "Background" && name != "TODO" {
				return true
			}
			if param := ctxParam(info, stack); param != "" {
				report(call.Pos(), "context.%s discards the caller's context: thread the enclosing function's %q instead", name, param)
			} else if name == "TODO" {
				report(call.Pos(), "context.TODO marks unfinished context plumbing: accept a context.Context or use context.Background with intent")
			}
			return true
		})
	}
}

// ctxParam returns the first named, non-blank context.Context
// parameter of the innermost enclosing function that has one, or "".
func ctxParam(info *types.Info, stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			ft = fn.Type
		case *ast.FuncDecl:
			ft = fn.Type
		default:
			continue
		}
		for _, field := range ft.Params.List {
			named, ok := info.Types[field.Type].Type.(*types.Named)
			if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "context" || named.Obj().Name() != "Context" {
				continue
			}
			for _, id := range field.Names {
				if id.Name != "_" {
					return id.Name
				}
			}
		}
	}
	return ""
}

// funcName returns the name of the package-level function of package
// pkg that call calls as pkg.Name(...), or "".
func funcName(info *types.Info, call *ast.CallExpr, pkg string) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkg {
		return ""
	}
	return fn.Name()
}
