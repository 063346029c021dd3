// Package analysis is a self-contained, dependency-free miniature of
// the golang.org/x/tools/go/analysis API: an Analyzer inspects one
// type-checked package and reports Diagnostics through its Pass.
//
// The engine's project-specific invariants (blockio lock ordering,
// trerr sentinel discipline, context threading, zero-copy page reads
// on the hot path) are encoded as analyzers under internal/analysis/... and
// driven by cmd/trlint. The API mirrors x/tools closely enough that
// the analyzers could be ported to a real multichecker by swapping
// imports, but it is implemented entirely on the standard library so
// the module keeps zero external dependencies.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a name for diagnostics,
// documentation, and the Run function applied to each package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //trlint:ignore comments. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation: first line a one-sentence
	// summary, then free-form detail.
	Doc string

	// Run applies the check to one package and reports findings via
	// pass.Report/Reportf. The result value is unused by this driver
	// (kept for x/tools API shape).
	Run func(pass *Pass) (any, error)
}

// Pass is one (analyzer, package) application: the type-checked
// syntax, type information, and the diagnostic sink.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver owns ordering,
	// deduplication, and suppression.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
