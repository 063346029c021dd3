package tsdata

import (
	"fmt"
	"math"
	"sort"
)

// Series is one temporal object: a contiguous chain of linear segments.
// Segment j's right endpoint is segment j+1's left endpoint, so the
// series is fully described by its n+1 vertices (t_j, v_j); the exported
// Segments view materializes them as n Segment values.
type Series struct {
	ID SeriesID

	// times and values are the n+1 vertices, times strictly increasing.
	times  []float64
	values []float64

	// prefix[j] = σ_i(I_{i,j}) = integral of the series over
	// [times[0], times[j]]; prefix[0] = 0. This is the prefix-sum array
	// of EXACT2 (Eq. 2) and is also used by breakpoint construction.
	prefix []float64

	// absPrefix is the prefix array of ∫|g|; only populated when the
	// series contains negative values (see Dataset.HasNegative).
	absPrefix []float64
}

// NewSeries builds a Series from vertex lists. times must be strictly
// increasing and the slices of equal length >= 2.
func NewSeries(id SeriesID, times, values []float64) (*Series, error) {
	if len(times) != len(values) {
		return nil, fmt.Errorf("tsdata: series %d: %d times vs %d values", id, len(times), len(values))
	}
	if len(times) < 2 {
		return nil, fmt.Errorf("tsdata: series %d: need at least 2 vertices, got %d", id, len(times))
	}
	for i, t := range times {
		if math.IsNaN(t) || math.IsInf(t, 0) || math.IsNaN(values[i]) || math.IsInf(values[i], 0) {
			return nil, fmt.Errorf("tsdata: series %d: non-finite vertex %d", id, i)
		}
		if i > 0 && t <= times[i-1] {
			return nil, fmt.Errorf("tsdata: series %d: times not strictly increasing at %d (%g <= %g)", id, i, t, times[i-1])
		}
	}
	s := &Series{ID: id, times: times, values: values}
	s.buildPrefix()
	return s, nil
}

// SeriesFromSegments builds a Series from a contiguous segment chain.
func SeriesFromSegments(id SeriesID, segs []Segment) (*Series, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("tsdata: series %d: empty segment list", id)
	}
	times := make([]float64, 0, len(segs)+1)
	values := make([]float64, 0, len(segs)+1)
	times = append(times, segs[0].T1)
	values = append(values, segs[0].V1)
	for j, sg := range segs {
		if err := sg.Validate(); err != nil {
			return nil, err
		}
		if j > 0 {
			if sg.T1 != segs[j-1].T2 || sg.V1 != segs[j-1].V2 {
				return nil, fmt.Errorf("tsdata: series %d: segment %d not contiguous with predecessor", id, j)
			}
		}
		times = append(times, sg.T2)
		values = append(values, sg.V2)
	}
	return NewSeries(id, times, values)
}

func (s *Series) buildPrefix() {
	n := len(s.times) - 1
	s.prefix = make([]float64, n+1)
	neg := false
	for j := 0; j < n; j++ {
		seg := Segment{s.times[j], s.times[j+1], s.values[j], s.values[j+1]}
		s.prefix[j+1] = s.prefix[j] + seg.Integral()
		if s.values[j] < 0 || s.values[j+1] < 0 {
			neg = true
		}
	}
	if neg {
		s.absPrefix = make([]float64, n+1)
		for j := 0; j < n; j++ {
			seg := Segment{s.times[j], s.times[j+1], s.values[j], s.values[j+1]}
			s.absPrefix[j+1] = s.absPrefix[j] + seg.AbsIntegral()
		}
	}
}

// NumSegments returns n_i, the number of linear segments.
func (s *Series) NumSegments() int { return len(s.times) - 1 }

// Start returns t_{i,0}, the first vertex time.
func (s *Series) Start() float64 { return s.times[0] }

// End returns t_{i,n_i}, the last vertex time.
func (s *Series) End() float64 { return s.times[len(s.times)-1] }

// VertexTime returns t_{i,j} for j in [0, n_i].
func (s *Series) VertexTime(j int) float64 { return s.times[j] }

// VertexValue returns v_{i,j} for j in [0, n_i].
func (s *Series) VertexValue(j int) float64 { return s.values[j] }

// Prefix returns σ_i([t_{i,0}, t_{i,j}]), the precomputed prefix
// aggregate through vertex j.
func (s *Series) Prefix(j int) float64 { return s.prefix[j] }

// HasNegative reports whether any vertex value is negative.
func (s *Series) HasNegative() bool { return s.absPrefix != nil }

// AbsTotal returns ∫|g| over the full domain (equals Total when the
// series is non-negative).
func (s *Series) AbsTotal() float64 {
	if s.absPrefix != nil {
		return s.absPrefix[len(s.absPrefix)-1]
	}
	return s.prefix[len(s.prefix)-1]
}

// Total returns σ_i(0,T): the integral over the series' full domain.
func (s *Series) Total() float64 { return s.prefix[len(s.prefix)-1] }

// Segment returns the j-th segment g_{i,j+1} (0-based j in [0, n_i)).
func (s *Series) Segment(j int) Segment {
	return Segment{s.times[j], s.times[j+1], s.values[j], s.values[j+1]}
}

// At evaluates g_i(t); zero outside the series' domain.
func (s *Series) At(t float64) float64 {
	if t < s.times[0] || t > s.End() {
		return 0
	}
	j := s.SegmentAt(t)
	return s.Segment(j).At(t)
}

// SegmentAt returns the index of the segment whose span contains t,
// i.e. the largest j with times[j] <= t (clamped to a valid segment
// index). Caller must ensure t is within the series domain.
func (s *Series) SegmentAt(t float64) int {
	// sort.SearchFloat64s gives the first index with times[idx] >= t.
	idx := sort.SearchFloat64s(s.times, t)
	if idx == len(s.times) {
		return len(s.times) - 2
	}
	if s.times[idx] == t {
		if idx == len(s.times)-1 {
			return idx - 1
		}
		return idx
	}
	if idx == 0 {
		return 0
	}
	return idx - 1
}

// Range computes σ_i(t1,t2) exactly via the prefix array: two binary
// searches plus two partial trapezoids (this is Eq. 2 evaluated
// in-memory; EXACT2/EXACT3 compute the same quantity from disk pages).
func (s *Series) Range(t1, t2 float64) float64 {
	if t2 <= t1 {
		return 0
	}
	// Clip to domain; outside the domain the function is 0.
	t1 = max(t1, s.Start())
	t2 = min(t2, s.End())
	if t2 <= t1 {
		return 0
	}
	jL := s.SegmentAt(t1)
	jR := s.SegmentAt(t2)
	// σ(t1,t2) = prefix[jR] - prefix[jL+1] + σ(t1, t_{jL+1}) + σ(t_{jR}, t2)
	segL := s.Segment(jL)
	segR := s.Segment(jR)
	if jL == jR {
		return segL.IntegralOver(t1, t2)
	}
	mid := s.prefix[jR] - s.prefix[jL+1]
	return mid + segL.IntegralOver(t1, segL.T2) + segR.IntegralOver(segR.T1, t2)
}

// RangesFrom sets dst[j] = Range(t1, t2s[j]) for every j, bit for bit,
// in one forward walk: t2s must be nondecreasing. Where Range binary
// searches both ends, the right end's segment index moves forward from
// the previous entry's, and the left end's segment and its partial
// trapezoid are found once; each entry is then Range's own expression
// in Range's order of operations.
func (s *Series) RangesFrom(t1 float64, t2s, dst []float64) {
	lo, end := max(t1, s.Start()), s.End()
	if lo >= end {
		clear(dst[:len(t2s)])
		return
	}
	jL := s.SegmentAt(lo)
	segL := s.Segment(jL)
	first := segL.IntegralOver(lo, segL.T2)
	last := len(s.times) - 2 // SegmentAt's clamp
	jR := jL
	for k, t2 := range t2s {
		// t2 <= t1 implies hi <= lo, Range's other empty case.
		hi := min(t2, end)
		if hi <= lo {
			dst[k] = 0
			continue
		}
		for jR < last && s.times[jR+1] <= hi {
			jR++
		}
		if jR == jL {
			dst[k] = segL.IntegralOver(lo, hi)
			continue
		}
		segR := s.Segment(jR)
		mid := s.prefix[jR] - s.prefix[jL+1]
		dst[k] = mid + first + segR.IntegralOver(segR.T1, hi)
	}
}

// AbsRange computes ∫_{t1}^{t2} |g_i| dt exactly.
func (s *Series) AbsRange(t1, t2 float64) float64 {
	if t2 <= t1 {
		return 0
	}
	t1 = max(t1, s.Start())
	t2 = min(t2, s.End())
	if t2 <= t1 {
		return 0
	}
	jL := s.SegmentAt(t1)
	jR := s.SegmentAt(t2)
	segL := s.Segment(jL)
	segR := s.Segment(jR)
	if jL == jR {
		return segL.AbsIntegralOver(t1, t2)
	}
	var mid float64
	if s.absPrefix != nil {
		mid = s.absPrefix[jR] - s.absPrefix[jL+1]
	} else {
		mid = s.prefix[jR] - s.prefix[jL+1]
	}
	return mid + segL.AbsIntegralOver(t1, segL.T2) + segR.AbsIntegralOver(segR.T1, t2)
}

// Append extends the series with one new segment whose left endpoint is
// the current last vertex (the §4 update model: temporal data receives
// updates only at the current time instance). The prefix arrays are
// extended in O(1).
func (s *Series) Append(t, v float64) error {
	last := len(s.times) - 1
	if t <= s.times[last] {
		return fmt.Errorf("tsdata: series %d: append time %g not after end %g", s.ID, t, s.times[last])
	}
	if math.IsNaN(t) || math.IsInf(t, 0) || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("tsdata: series %d: non-finite append", s.ID)
	}
	seg := Segment{s.times[last], t, s.values[last], v}
	s.times = append(s.times, t)
	s.values = append(s.values, v)
	s.prefix = append(s.prefix, s.prefix[len(s.prefix)-1]+seg.Integral())
	if s.absPrefix == nil && v < 0 {
		// First negative value: build abs prefix from scratch.
		s.absPrefix = make([]float64, 1, len(s.times))
		for j := 0; j < len(s.times)-1; j++ {
			sg := s.Segment(j)
			s.absPrefix = append(s.absPrefix, s.absPrefix[j]+sg.AbsIntegral())
		}
	} else if s.absPrefix != nil {
		s.absPrefix = append(s.absPrefix, s.absPrefix[len(s.absPrefix)-1]+seg.AbsIntegral())
	}
	return nil
}
