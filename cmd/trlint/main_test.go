package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCheckCleanRepo is the acceptance gate CI re-runs: the full suite
// over the whole module must report nothing.
func TestCheckCleanRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	findings, err := Check("../..", []string{"./..."}, all)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestCheckCatchesInjected builds a scratch module carrying one
// deliberate violation per analyzer — a sentinel comparison and a
// dropped context — and proves the real loader-to-checker pipeline
// catches each, while the //trlint:ignore escape hatch still works.
func TestCheckCatchesInjected(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.24\n")
	write("scratch.go", `// Package scratch deliberately violates every trlint invariant.
package scratch

import (
	"context"
	"errors"
	"fmt"
)

var ErrGone = errors.New("gone")

func isGone(err error) bool {
	return err == ErrGone // trerr: sentinel compared by value
}

func wrap(err error) error {
	return fmt.Errorf("wrap: %v", err) //trlint:ignore trerr exercising the suppression path
}

func deadline(ctx context.Context) error {
	sub := context.Background() // ctxflow: ctx in scope
	_ = sub
	return ctx.Err()
}
`)

	findings, err := Check(dir, []string{"./..."}, all)
	if err != nil {
		t.Fatal(err)
	}
	caught := make(map[string][]string)
	for _, f := range findings {
		caught[f.Analyzer] = append(caught[f.Analyzer], f.String())
	}
	for _, want := range []string{"trerr", "ctxflow"} {
		if len(caught[want]) == 0 {
			t.Errorf("injected %s violation not caught; findings: %v", want, findings)
		}
	}
	// Exactly one finding per analyzer: wrap's //trlint:ignore silenced
	// its twin violation.
	for a, fs := range caught {
		if len(fs) != 1 {
			t.Errorf("%s: got %d findings, want 1: %v", a, len(fs), fs)
		}
	}
}
