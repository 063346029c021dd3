// The race detector instruments allocations, so the counts only hold in
// a normal build.
//
//go:build !race

package exact

import (
	"testing"

	"temporalrank/internal/blockio"
)

// TestExact3TopKAllocs pins an EXACT3 query at exactly one allocation,
// the top-k result slice: the pooled σ-vector (getScores/putScores), the
// two stabs scored into it (stabSigma), the adjust hook and the pooled
// collector allocate nothing.
func TestExact3TopKAllocs(t *testing.T) {
	ds := randomDataset(5, 300, 40, false)
	e, err := BuildExact3(blockio.NewMemDevice(1024), ds)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ds.Start(), ds.End()
	var adjusted int
	adjust := func(sums []float64) { sums[0] += 1; adjusted++ }
	i := 0
	got := testing.AllocsPerRun(200, func() {
		t1 := lo + (hi-lo)*float64(i%8)/16
		i++
		items, err := e.TopKAdjusted(10, t1, t1+(hi-lo)/4, adjust)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 10 {
			t.Fatalf("got %d items, want 10", len(items))
		}
	})
	if got != 1 {
		t.Errorf("Exact3.TopKAdjusted allocates %.1f allocs/op, want 1", got)
	}
	if adjusted == 0 {
		t.Error("adjust never ran")
	}
}
