// Command trlint is the engine's project-specific static analysis
// suite: a multichecker over the analyzers in internal/analysis/...
// that mechanically enforces invariants the engine otherwise keeps
// only by convention.
//
// Analyzers:
//
//	trerr      sentinel comparisons must use errors.Is; fmt.Errorf must %w errors
//	ctxflow    context.Background/TODO must not drop an in-scope caller context
//
// Rules a test can check are tests, not analyzers: query paths view
// pages rather than copy them (indexes built on a
// blockio.ViewOnlyDevice), the buffer pool calls its device with no
// shard lock held (TestBufferPoolDeviceLockOrder), and the memtable's
// append-path lock order (the import graph, plus memtable's
// TestCallbacksRunUnlocked).
//
// Usage (what CI runs; no patterns means ./...):
//
//	trlint [packages]
//
// Any finding exits nonzero. A finding can be suppressed on its line
// (or the line above) with `//trlint:ignore <analyzer> <reason>`.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"temporalrank/internal/analysis"
	"temporalrank/internal/analysis/checker"
	"temporalrank/internal/analysis/ctxflow"
	"temporalrank/internal/analysis/load"
	trerrcheck "temporalrank/internal/analysis/trerr"
)

// all is the full analyzer suite, in reporting order.
var all = []*analysis.Analyzer{
	trerrcheck.Analyzer,
	ctxflow.Analyzer,
}

func main() {
	patterns := os.Args[1:]
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fmt.Fprintln(os.Stderr, "usage: trlint [packages]")
			os.Exit(2)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := Check(".", patterns, all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trlint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(relativize(f))
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "trlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// Check loads patterns from dir and runs the analyzers — the
// programmatic entry point the tests drive.
func Check(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]checker.Finding, error) {
	loader := load.NewLoader(dir)
	units, err := loader.Load(patterns)
	if err != nil {
		return nil, err
	}
	return checker.Run(units, loader.Fset, analyzers)
}

// relativize shortens a finding's path to the working directory for
// readable output; the position is untouched on any error.
func relativize(f checker.Finding) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, f.Posn.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			f.Posn.Filename = rel
		}
	}
	return f.String()
}
