// Package pagecopy keeps annotated hot-path functions on the
// zero-copy read path: inside a //tr:hotpath function it flags
// copy-based page access — Device.Read into caller scratch, and
// GetPageBuf scratch rental — wherever the device vocabulary offers a
// zero-copy View instead. It is the mechanical guard for the
// view-based read path: without it, the next convenient `dev.Read(id,
// buf)` quietly reintroduces a full-page memcpy per access on paths
// the benchmarks assume are copy-free.
//
// # Scoping
//
// Like lockorder, the analyzer switches itself on structurally rather
// than by import path: it looks for a dependency (or the package
// itself) that declares the view vocabulary — a `PageView` type and a
// `Viewer` interface with a `View` method. Packages with no such
// dependency are never inspected, which keeps the golden testdata
// self-contained. The declaring package itself is exempt: it hosts
// the copy-based fallbacks the rest of the engine degrades to (the
// buffer pool's miss fill, the universal copy view), which are
// copy-based by design.
//
// # What is flagged
//
// Inside a //tr:hotpath function:
//
//   - calls to a method named Read declared by the view package whose
//     signature is the page-read shape (page id + byte slice → error),
//     whether through the Device interface or a concrete device;
//   - calls to the view package's GetPageBuf (renting copy scratch on
//     a hot path is the tell of a copy-based scan).
//
// A sanctioned copy — a write path that must materialize bytes, a
// cold error branch — is waived line-by-line with
//
//	//tr:pagecopy-ok <reason>
//
// on (or immediately above) the offending line.
package pagecopy

import (
	"go/ast"
	"go/types"
	"strings"

	"temporalrank/internal/analysis"
)

// Analyzer is the pagecopy analysis.
var Analyzer = &analysis.Analyzer{
	Name: "pagecopy",
	Doc:  "flag copy-based page reads inside //tr:hotpath functions where a zero-copy View exists",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	vp := viewPackage(pass.Pkg)
	if vp == nil || vp == pass.Pkg {
		return nil, nil
	}
	for _, f := range pass.Files {
		waived := waivedLines(pass, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotPath(fd) {
				continue
			}
			c := &checker{pass: pass, vp: vp, waived: waived}
			c.check(fd.Body)
		}
	}
	return nil, nil
}

// viewPackage returns the package providing the zero-copy view
// vocabulary — a PageView type plus a Viewer interface with a View
// method — looked up in pkg itself and its direct imports.
func viewPackage(pkg *types.Package) *types.Package {
	if declaresViews(pkg) {
		return pkg
	}
	for _, imp := range pkg.Imports() {
		if declaresViews(imp) {
			return imp
		}
	}
	return nil
}

func declaresViews(pkg *types.Package) bool {
	if _, ok := pkg.Scope().Lookup("PageView").(*types.TypeName); !ok {
		return false
	}
	obj, ok := pkg.Scope().Lookup("Viewer").(*types.TypeName)
	if !ok {
		return false
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == "View" {
			return true
		}
	}
	return false
}

// isHotPath reports whether the declaration carries //tr:hotpath.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, "//tr:hotpath") {
			return true
		}
	}
	return false
}

// waivedLines collects the lines carrying a //tr:pagecopy-ok waiver.
func waivedLines(pass *analysis.Pass, f *ast.File) map[int]bool {
	out := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//tr:pagecopy-ok") {
				out[pass.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return out
}

type checker struct {
	pass   *analysis.Pass
	vp     *types.Package
	waived map[int]bool
}

func (c *checker) report(n ast.Node, format string, args ...any) {
	line := c.pass.Fset.Position(n.Pos()).Line
	if c.waived[line] || c.waived[line-1] {
		return
	}
	c.pass.Reportf(n.Pos(), format, args...)
}

func (c *checker) check(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(c.pass, call)
		if fn == nil || fn.Pkg() != c.vp {
			return true
		}
		switch {
		case fn.Name() == "Read" && isPageReadSig(fn):
			c.report(call, "copy-based page Read on hot path: decode in place from a View (%s.View) instead, or waive with //tr:pagecopy-ok", c.vp.Name())
		case fn.Name() == "GetPageBuf":
			c.report(call, "page scratch rental on hot path: decode in place from a View instead of copying into GetPageBuf scratch, or waive with //tr:pagecopy-ok")
		}
		return true
	})
}

// isPageReadSig reports whether fn has the page-read method shape:
// two parameters — a defined integer page id type from the view
// package and a byte slice — returning exactly one error.
func isPageReadSig(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	params := sig.Params()
	results := sig.Results()
	if params.Len() != 2 || results.Len() != 1 {
		return false
	}
	named, ok := params.At(0).Type().(*types.Named)
	if !ok || named.Obj().Pkg() != fn.Pkg() {
		return false
	}
	if b, ok := named.Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
		return false
	}
	slice, ok := params.At(1).Type().Underlying().(*types.Slice)
	if !ok || !isByte(slice.Elem()) {
		return false
	}
	return isError(results.At(0).Type())
}

func isByte(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}

func isError(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// calleeFunc resolves the called function object, if any.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
