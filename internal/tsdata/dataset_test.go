package tsdata

import (
	"math/rand"
	"sort"
	"testing"
)

func mustDataset(t *testing.T, series ...*Series) *Dataset {
	t.Helper()
	d, err := NewDataset(series)
	if err != nil {
		t.Fatalf("NewDataset: %v", err)
	}
	return d
}

func randomDataset(rng *rand.Rand, m, maxSegs int, allowNegative bool) *Dataset {
	series := make([]*Series, m)
	for i := 0; i < m; i++ {
		series[i] = randomSeries(rng, SeriesID(i), 1+rng.Intn(maxSegs), allowNegative)
	}
	d, err := NewDataset(series)
	if err != nil {
		panic(err)
	}
	return d
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil); err == nil {
		t.Error("empty dataset accepted")
	}
	s0 := mustSeries(t, 0, []float64{0, 1}, []float64{1, 1})
	if _, err := NewDataset([]*Series{s0, nil}); err == nil {
		t.Error("nil series accepted")
	}
	s5 := mustSeries(t, 5, []float64{0, 1}, []float64{1, 1})
	if _, err := NewDataset([]*Series{s0, s5}); err == nil {
		t.Error("non-dense IDs accepted")
	}
}

func TestDatasetAggregates(t *testing.T) {
	s0 := mustSeries(t, 0, []float64{0, 2}, []float64{3, 3})   // total 6
	s1 := mustSeries(t, 1, []float64{1, 5}, []float64{0, 2})   // total 4
	s2 := mustSeries(t, 2, []float64{0, 4}, []float64{-1, -1}) // total -4, abs 4
	d := mustDataset(t, s0, s1, s2)
	if d.NumSeries() != 3 || d.NumSegments() != 3 {
		t.Errorf("m=%d N=%d", d.NumSeries(), d.NumSegments())
	}
	if d.Start() != 0 || d.End() != 5 {
		t.Errorf("domain [%g,%g], want [0,5]", d.Start(), d.End())
	}
	if !d.HasNegative() {
		t.Error("negatives not detected")
	}
	if got := d.SignedTotal(); !approxEq(got, 6, 1e-12) {
		t.Errorf("SignedTotal = %g, want 6", got)
	}
	if got := d.M(); !approxEq(got, 14, 1e-12) {
		t.Errorf("M = %g, want 14 (abs totals)", got)
	}
	if got := d.AvgSegments(); !approxEq(got, 1, 1e-12) {
		t.Errorf("AvgSegments = %g, want 1", got)
	}
	if got := d.MaxSegments(); got != 1 {
		t.Errorf("MaxSegments = %d, want 1", got)
	}
}

func TestDatasetFlatSegmentsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDataset(rng, 20, 15, false)
	flat := d.FlatSegments()
	if len(flat) != d.NumSegments() {
		t.Fatalf("flat len %d != N %d", len(flat), d.NumSegments())
	}
	for i := 1; i < len(flat); i++ {
		if flat[i].Segment.T1 < flat[i-1].Segment.T1 {
			t.Fatalf("flat not sorted at %d", i)
		}
	}
	// Every (series, index) pair appears exactly once.
	seen := make(map[[2]int32]bool, len(flat))
	for _, ref := range flat {
		key := [2]int32{int32(ref.Series), ref.Index}
		if seen[key] {
			t.Fatalf("duplicate segment ref %v", key)
		}
		seen[key] = true
	}
}

func TestDatasetRefreshAfterAppend(t *testing.T) {
	s0 := mustSeries(t, 0, []float64{0, 1}, []float64{2, 2})
	d := mustDataset(t, s0)
	oldM := d.M()
	if err := s0.Append(2, 2); err != nil {
		t.Fatal(err)
	}
	d.Refresh()
	if d.NumSegments() != 2 {
		t.Errorf("N after refresh = %d, want 2", d.NumSegments())
	}
	if d.M() <= oldM {
		t.Errorf("M did not grow: %g -> %g", oldM, d.M())
	}
	if d.End() != 2 {
		t.Errorf("End = %g, want 2", d.End())
	}
}

func TestDatasetClone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := randomDataset(rng, 10, 10, true)
	c := d.Clone()
	if c.NumSeries() != d.NumSeries() || c.NumSegments() != d.NumSegments() {
		t.Fatal("clone shape mismatch")
	}
	// Mutating the clone must not affect the original.
	origN := d.NumSegments()
	if err := c.Series(0).Append(c.Series(0).End()+1, 1); err != nil {
		t.Fatal(err)
	}
	c.Refresh()
	if d.NumSegments() != origN {
		t.Error("clone mutation leaked into original")
	}
	// Values agree.
	for i := 0; i < d.NumSeries(); i++ {
		id := SeriesID(i)
		a, b := d.Series(id), c.Series(id)
		t1 := a.Start() + (a.End()-a.Start())*0.25
		t2 := a.Start() + (a.End()-a.Start())*0.75
		if !approxEq(a.Range(t1, t2), b.Range(t1, t2), 1e-12) {
			t.Fatalf("series %d clone range mismatch", i)
		}
	}
}

// TestFlatSegmentsMatchesSortReference holds FlatSegments to a
// sort.Slice over the order it documents, (T1, series, index), on data
// where the tie-breaks decide: series sampled on a shared integer grid,
// so most left endpoints recur across series. Series counts around
// powers of two cover uneven halves; the largest count, odd, holds more
// than flatSplit segments, so that with more than one core its halves
// are merged on two goroutines.
func TestFlatSegmentsMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, m := range []int{1, 2, 3, 7, 8, 9, 64, 65, 200, 1001} {
		series := make([]*Series, m)
		for i := range series {
			n := 1 + rng.Intn(12)
			times := make([]float64, n+1)
			values := make([]float64, n+1)
			at := rng.Intn(4)
			for j := range times {
				times[j] = float64(at)
				values[j] = rng.Float64()*100 - 50
				at += 1 + rng.Intn(3)
			}
			series[i] = mustSeries(t, SeriesID(i), times, values)
		}
		d := mustDataset(t, series...)

		var want []SegmentRef
		for _, s := range d.AllSeries() {
			for j := 0; j < s.NumSegments(); j++ {
				want = append(want, SegmentRef{Series: s.ID, Index: int32(j), Segment: s.Segment(j)})
			}
		}
		sort.Slice(want, func(a, b int) bool {
			sa, sb := want[a], want[b]
			if sa.Segment.T1 != sb.Segment.T1 {
				return sa.Segment.T1 < sb.Segment.T1
			}
			if sa.Series != sb.Series {
				return sa.Series < sb.Series
			}
			return sa.Index < sb.Index
		})

		got := d.FlatSegments()
		if len(got) != len(want) {
			t.Fatalf("m=%d: %d refs, want %d", m, len(got), len(want))
		}
		ties := 0
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("m=%d: ref %d is %+v, reference %+v", m, i, got[i], want[i])
			}
			if i > 0 && want[i].Segment.T1 == want[i-1].Segment.T1 {
				ties++
			}
		}
		if m > 3 && ties == 0 {
			t.Fatalf("m=%d: no left endpoint recurs; the test data lost its ties", m)
		}
		if m == 1001 && len(want) < flatSplit {
			t.Fatalf("m=%d: %d segments, too few for FlatSegments to split", m, len(want))
		}
	}
}
