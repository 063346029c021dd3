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
//
// The module's external test package also uses the export_test.go
// idiom: it calls a hook that only the package's own test files
// declare, and passes it a value of the package's type that it gets
// through a second package importing the first. Both load only if the
// external test is checked against the test-augmented package, with
// the second package checked again against that, and under the
// pattern "." too, where only the external test imports the second
// package.
func TestCheckCatchesInjected(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		name = filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(name), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, []byte(src), 0o666); err != nil {
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

// Code is a value the external test reaches through package codes.
type Code int

func name(c Code) string { return fmt.Sprint("code ", int(c)) }
`)
	write("export_test.go", `package scratch

// Name exposes name to the external test package.
var Name = name
`)
	write("codes/codes.go", `// Package codes imports scratch, so scratch's external test sees
// scratch through it as well as directly.
package codes

import "scratch"

// Default is the scratch.Code the test names.
func Default() scratch.Code { return 7 }
`)
	write("scratch_test.go", `package scratch_test

import (
	"testing"

	"scratch"
	"scratch/codes"
)

func TestName(t *testing.T) {
	if got := scratch.Name(codes.Default()); got != "code 7" {
		t.Fatalf("Name = %q", got)
	}
}
`)

	if _, err := Check(dir, []string{"."}, all); err != nil {
		t.Fatalf("pattern \".\": %v", err)
	}
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
