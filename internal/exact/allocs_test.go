// The race detector instruments allocations, so the counts only hold in
// a normal build.
//
//go:build !race

package exact

import (
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/tsdata"
)

// TestExact3TopKAllocs pins an EXACT3 query at exactly one allocation,
// the top-k result slice: the pooled σ-vector (getScores/putScores), the
// two stabs scored into it (stabSigma), the adjust hook and the pooled
// collector allocate nothing.
func TestExact3TopKAllocs(t *testing.T) {
	ds := randomDataset(5, 300, 40, false)
	e, err := BuildExact3(blockio.NewViewOnlyDevice(1024), ds)
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
		items, _, err := e.TopKAdjusted(10, t1, t1+(hi-lo)/4, adjust)
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

// TestExact2ScoreAllocs pins one EXACT2 score at zero allocations: the
// directory routes each window end to its page, which is viewed in
// place.
func TestExact2ScoreAllocs(t *testing.T) {
	ds := randomDataset(6, 200, 60, false)
	e, err := BuildExact2(blockio.NewViewOnlyDevice(512), ds)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ds.Start(), ds.End()
	var sum float64
	i := 0
	got := testing.AllocsPerRun(200, func() {
		t1 := lo + (hi-lo)*float64(i%8)/16
		s, err := e.Score(tsdata.SeriesID(i%ds.NumSeries()), t1, t1+(hi-lo)/4)
		i++
		if err != nil {
			t.Fatal(err)
		}
		sum += s
	})
	if got != 0 {
		t.Errorf("Exact2.Score allocates %.1f allocs/op, want 0", got)
	}
	if sum == 0 {
		t.Error("every score was zero")
	}
}

// TestExact2TopKAllocs pins an EXACT2 query at exactly one allocation,
// the top-k result slice: the pooled σ-vector, the per-object scores
// viewed in place and the pooled collector allocate nothing.
func TestExact2TopKAllocs(t *testing.T) {
	ds := randomDataset(6, 200, 60, false)
	e, err := BuildExact2(blockio.NewViewOnlyDevice(512), ds)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ds.Start(), ds.End()
	i := 0
	got := testing.AllocsPerRun(200, func() {
		t1 := lo + (hi-lo)*float64(i%8)/16
		i++
		items, err := e.TopK(10, t1, t1+(hi-lo)/4)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 10 {
			t.Fatalf("got %d items, want 10", len(items))
		}
	})
	if got != 1 {
		t.Errorf("Exact2.TopK allocates %.1f allocs/op, want 1", got)
	}
}
