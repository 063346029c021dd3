// The race detector instruments allocations, so the counts only hold in
// a normal build.
//
//go:build !race

package bptree

import (
	"testing"

	"temporalrank/internal/blockio"
)

// TestSearchAllocs pins a search and cursor walk at zero allocations:
// SearchCeil down a three-level tree, then Key/Value/Next across leaf
// boundaries, then Close.
func TestSearchAllocs(t *testing.T) {
	const n = 5000
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(i) * 0.5
	}
	tr, err := BulkLoad(blockio.NewViewOnlyDevice(128), 8, mkEntries(keys))
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	i := 0
	got := testing.AllocsPerRun(200, func() {
		x := keys[(i*97)%n] - 0.25 // between keys: exercises the ceil
		i++
		c, err := tr.SearchCeil(x)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20; step++ {
			if c.Key() < x {
				t.Fatalf("key %g below %g", c.Key(), x)
			}
			sum += dec8(c.Value())
			if !c.Next() {
				break
			}
		}
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
		c.Close()
	})
	if got != 0 {
		t.Errorf("SearchCeil + cursor walk allocates %.1f allocs/op, want 0", got)
	}
	if sum == 0 {
		t.Error("walk read no values")
	}
}
