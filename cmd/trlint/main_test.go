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
// deliberate violation per analyzer — a lock-order inversion, a
// sentinel comparison, a dropped context, a hot-path page copy — and
// proves the real loader-to-checker pipeline catches each, while the
// //trlint:ignore and //tr:pagecopy-ok escape hatches still work.
func TestCheckCatchesInjected(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.24\n")
	// pagecopy exempts the package declaring the view vocabulary, so the
	// vocabulary lives in its own package and the violation in scratch.
	write("views/views.go", `// Package views declares the zero-copy page vocabulary.
package views

type PageID int64

type PageView struct{ data []byte }

func (v *PageView) Data() []byte { return v.data }

type Viewer interface {
	View(id PageID) (PageView, error)
}

type Pages interface {
	Read(id PageID, p []byte) error
}
`)
	write("scratch.go", `// Package scratch deliberately violates every trlint invariant.
package scratch

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"scratch/views"
)

type Device interface {
	Read(id int, p []byte) error
	Write(id int, p []byte) error
	Alloc() (int, error)
	Close() error
}

type pool struct {
	mu  sync.Mutex
	dev Device
}

func (p *pool) allocUnderLock() (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dev.Alloc() // lockorder: alloc-path call under a lock
}

//tr:hotpath
func hotRead(p views.Pages, buf []byte) error {
	return p.Read(1, buf) // pagecopy: copy-based page read on a hot path
}

//tr:hotpath
func hotReadWaived(p views.Pages, buf []byte) error {
	//tr:pagecopy-ok scratch for the test
	return p.Read(1, buf)
}

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
	for _, want := range []string{"lockorder", "trerr", "ctxflow", "pagecopy"} {
		if len(caught[want]) == 0 {
			t.Errorf("injected %s violation not caught; findings: %v", want, findings)
		}
	}
	// Exactly one finding per analyzer: hotReadWaived's //tr:pagecopy-ok
	// and wrap's //trlint:ignore each silenced their twin violation.
	for a, fs := range caught {
		if len(fs) != 1 {
			t.Errorf("%s: got %d findings, want 1: %v", a, len(fs), fs)
		}
	}
}
