// The race detector instruments allocations, so the counts only hold in
// a normal build.
//
//go:build !race

package qcache

import (
	"context"
	"testing"
)

// TestHitAllocs pins the cache's hit paths at zero allocations: a Do
// hit, and a DoScoped hit that first revalidates past a journal event
// outside its scope, advancing the entry's versions in place.
func TestHitAllocs(t *testing.T) {
	ctx := context.Background()
	fn := func() (int, error) { return 42, nil }

	c := New[int, int](8)
	if _, _, err := c.Do(ctx, 1, 7, fn); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if v, cached, err := c.Do(ctx, 1, 7, fn); err != nil || !cached || v != 42 {
			t.Fatalf("Do hit = (%d, %v, %v)", v, cached, err)
		}
	}); got != 0 {
		t.Errorf("Do hit allocates %.1f allocs/op, want 0", got)
	}

	j := NewJournal(0)
	js := []*Journal{j}
	scope := Scope{Series: -1, T1: 0, T2: 10}
	elsewhere := Scope{Series: 3, T1: 100, T2: 100}
	if _, _, err := c.DoScoped(ctx, 2, js, scope, fn); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		j.Advance(elsewhere)
		if v, cached, err := c.DoScoped(ctx, 2, js, scope, fn); err != nil || !cached || v != 42 {
			t.Fatalf("DoScoped hit = (%d, %v, %v)", v, cached, err)
		}
	}); got != 0 {
		t.Errorf("DoScoped hit allocates %.1f allocs/op, want 0", got)
	}
}
