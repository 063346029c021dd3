// The race detector instruments allocations, so the counts only hold in
// a normal build.
//
//go:build !race

package topk

import (
	"math/rand"
	"testing"

	"temporalrank/internal/tsdata"
)

// TestCollectorAllocs pins the per-query collector lifecycle — pooled
// get, k adds through both sift paths, release — at zero allocations,
// and Results at exactly its one output slice.
func TestCollectorAllocs(t *testing.T) {
	scores := make([]float64, 500)
	rng := rand.New(rand.NewSource(1))
	for i := range scores {
		scores[i] = float64(rng.Intn(50))
	}
	collect := func(withResults bool) float64 {
		return testing.AllocsPerRun(200, func() {
			c := GetCollector(10)
			for i, s := range scores {
				c.Add(tsdata.SeriesID(i), s)
			}
			if withResults {
				_ = c.Results()
			}
			c.Release()
		})
	}
	if got := collect(false); got != 0 {
		t.Errorf("GetCollector/Add/Release allocates %.1f allocs/op, want 0", got)
	}
	if got := collect(true); got != 1 {
		t.Errorf("with Results: %.1f allocs/op, want 1", got)
	}
}

// TestSortItemsAllocs pins SortItems at zero allocations, at a per-query
// k and at an APPX list's kmax.
func TestSortItemsAllocs(t *testing.T) {
	for _, n := range []int{10, 200} {
		items := randomItems(rand.New(rand.NewSource(int64(n))), n)
		buf := make([]Item, n)
		if got := testing.AllocsPerRun(100, func() {
			copy(buf, items)
			SortItems(buf)
		}); got != 0 {
			t.Errorf("SortItems(len %d) allocates %.1f allocs/op, want 0", n, got)
		}
	}
}
