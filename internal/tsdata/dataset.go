package tsdata

import (
	"fmt"
	"math"
	"runtime"
)

// Dataset is the full temporal database: m objects with N total
// segments over temporal domain [Start, End] (the paper's [0, T]).
type Dataset struct {
	series []*Series

	totalSegments int
	start, end    float64
	m             float64 // Σ_i σ_i(0,T) with absolute values when negatives present
	sum           float64 // Σ_i σ_i(0,T), signed
	hasNegative   bool
}

// NewDataset assembles a Dataset. Series must be indexed by their ID:
// series[i].ID == i is enforced so that per-object running-sum arrays
// can be indexed densely.
func NewDataset(series []*Series) (*Dataset, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("tsdata: empty dataset")
	}
	d := &Dataset{series: series, start: math.Inf(1), end: math.Inf(-1)}
	for i, s := range series {
		if s == nil {
			return nil, fmt.Errorf("tsdata: nil series at %d", i)
		}
		if int(s.ID) != i {
			return nil, fmt.Errorf("tsdata: series at position %d has ID %d (must be dense 0..m-1)", i, s.ID)
		}
		d.totalSegments += s.NumSegments()
		d.start = math.Min(d.start, s.Start())
		d.end = math.Max(d.end, s.End())
		d.sum += s.Total()
		d.m += s.AbsTotal()
		if s.HasNegative() {
			d.hasNegative = true
		}
	}
	return d, nil
}

// NumSeries returns m, the number of objects.
func (d *Dataset) NumSeries() int { return len(d.series) }

// NumSegments returns N, the total number of segments.
func (d *Dataset) NumSegments() int { return d.totalSegments }

// Series returns object i.
func (d *Dataset) Series(i SeriesID) *Series { return d.series[i] }

// AllSeries returns the underlying slice (callers must not mutate).
func (d *Dataset) AllSeries() []*Series { return d.series }

// Start returns the left end of the temporal domain.
func (d *Dataset) Start() float64 { return d.start }

// End returns T, the right end of the temporal domain.
func (d *Dataset) End() float64 { return d.end }

// Span returns End-Start.
func (d *Dataset) Span() float64 { return d.end - d.start }

// M returns M = Σ_i σ_i(0,T), using absolute integrals when any series
// has negative values (the §4 extension); this is the normalizer in the
// (ε,α)-approximation guarantees.
func (d *Dataset) M() float64 { return d.m }

// SignedTotal returns Σ_i σ_i(0,T) without the absolute-value
// adjustment.
func (d *Dataset) SignedTotal() float64 { return d.sum }

// HasNegative reports whether any object has a negative score anywhere.
func (d *Dataset) HasNegative() bool { return d.hasNegative }

// AvgSegments returns navg.
func (d *Dataset) AvgSegments() float64 {
	return float64(d.totalSegments) / float64(len(d.series))
}

// MaxSegments returns n = max_i n_i.
func (d *Dataset) MaxSegments() int {
	n := 0
	for _, s := range d.series {
		if s.NumSegments() > n {
			n = s.NumSegments()
		}
	}
	return n
}

// Range computes σ_i(t1,t2) for object i (in-memory reference path).
func (d *Dataset) Range(i SeriesID, t1, t2 float64) float64 {
	return d.series[i].Range(t1, t2)
}

// Refresh recomputes dataset-level aggregates after series have been
// extended via Series.Append. O(m).
func (d *Dataset) Refresh() {
	d.totalSegments = 0
	d.start, d.end = math.Inf(1), math.Inf(-1)
	d.sum, d.m = 0, 0
	d.hasNegative = false
	for _, s := range d.series {
		d.totalSegments += s.NumSegments()
		d.start = math.Min(d.start, s.Start())
		d.end = math.Max(d.end, s.End())
		d.sum += s.Total()
		d.m += s.AbsTotal()
		if s.HasNegative() {
			d.hasNegative = true
		}
	}
}

// SegmentRef identifies a segment within the dataset: object i, local
// segment index j.
type SegmentRef struct {
	Series  SeriesID
	Index   int32
	Segment Segment
}

// FlatSegments returns every segment of every object in the total
// order (left endpoint time, series, index) — no two refs compare equal,
// so the result does not depend on how it is produced. This is the
// input ordering required by EXACT1 bulk-loading and breakpoint
// construction, the in-memory counterpart of the paper's external sort
// (the IO-metered variant lives in internal/extsort).
//
// Each series is already one run in that order (its left endpoints
// strictly increase), so the result is a merge of the m runs. With more
// than one core (runtime.GOMAXPROCS) and at least flatSplit segments,
// the two halves of the series are merged on two goroutines and then
// into one another; otherwise on the calling goroutine alone.
func (d *Dataset) FlatSegments() []SegmentRef {
	runs := make([]int, len(d.series)+1) // series i's run is [runs[i], runs[i+1])
	for i, s := range d.series {
		runs[i+1] = runs[i] + s.NumSegments()
	}
	out := make([]SegmentRef, d.totalSegments)
	tmp := make([]SegmentRef, d.totalSegments)
	h := len(d.series) / 2
	if h == 0 || d.totalSegments < flatSplit || runtime.GOMAXPROCS(0) < 2 {
		flatten(out, tmp, d.series, runs)
		return out
	}
	done := make(chan struct{})
	go func() {
		flatten(tmp, out, d.series[:h], runs[:h+1])
		close(done)
	}()
	flatten(tmp, out, d.series[h:], runs[h:])
	<-done
	mergeByT1(out, tmp[:runs[h]], tmp[runs[h]:])
	return out
}

// flatSplit is the fewest segments FlatSegments splits between two
// goroutines: below it, starting one costs more than it saves.
const flatSplit = 4096

// flatten puts the refs of series into dst in (T1, series, index)
// order, using tmp as scratch. runs[i] is where series[i]'s refs start
// in both buffers, and runs[len(series)] is where the last one's end.
// Each half of the series is flattened into tmp and the halves merged
// into dst, so the buffers swap roles at every level and a series'
// refs are written only into the buffer its level merges from. Merging
// neighbouring blocks of series keeps ties in series order: on equal
// times the left block's ref has the smaller series and goes first.
func flatten(dst, tmp []SegmentRef, series []*Series, runs []int) {
	if len(series) == 1 {
		s := series[0]
		run := dst[runs[0]:runs[1]]
		for j := range run {
			run[j] = SegmentRef{Series: s.ID, Index: int32(j), Segment: s.Segment(j)}
		}
		return
	}
	h := len(series) / 2
	flatten(tmp, dst, series[:h], runs[:h+1])
	flatten(tmp, dst, series[h:], runs[h:])
	mergeByT1(dst[runs[0]:runs[len(series)]], tmp[runs[0]:runs[h]], tmp[runs[h]:runs[len(series)]])
}

// mergeByT1 merges a and b, each ascending in T1, into dst, taking from
// a on equal times.
func mergeByT1(dst, a, b []SegmentRef) {
	for len(a) > 0 && len(b) > 0 {
		if b[0].Segment.T1 < a[0].Segment.T1 {
			dst[0], b = b[0], b[1:]
		} else {
			dst[0], a = a[0], a[1:]
		}
		dst = dst[1:]
	}
	copy(dst[copy(dst, a):], b)
}

// Clone deep-copies the dataset (used by update benchmarks so appends
// do not pollute shared fixtures).
func (d *Dataset) Clone() *Dataset {
	cp := make([]*Series, len(d.series))
	for i, s := range d.series {
		times := append([]float64(nil), s.times...)
		values := append([]float64(nil), s.values...)
		ns, err := NewSeries(s.ID, times, values)
		if err != nil {
			panic(fmt.Sprintf("tsdata: clone of valid series failed: %v", err))
		}
		cp[i] = ns
	}
	nd, err := NewDataset(cp)
	if err != nil {
		panic(fmt.Sprintf("tsdata: clone of valid dataset failed: %v", err))
	}
	return nd
}
