package main

import (
	"math"
	"sort"
)

// This file holds the one copy of the benchmark's summary statistics:
// percentile selection, the tail-percentile rule, and the
// median-of-segments reducer every reported timing goes through.

// tailLadder is the set of percentiles a timing may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean anything: with fewer, the "percentile" is one or two
// outliers.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder that
// still has at least minBeyond samples beyond it among n samples, and
// false when even the median does not.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// rank is the nearest-rank position (1-based) of the p-quantile among n
// sorted samples. The tolerance keeps 0.9*100 = 90.00000000000001 from
// rounding up to 91.
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n) - 1e-9))
}

// percentile returns the p-quantile (0 <= p <= 1) of sorted by the
// nearest-rank rule; sorted must be ascending and non-empty.
func percentile(sorted []int64, p float64) int64 {
	i := rank(len(sorted), p) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of vs (the mean of the two middle values
// for an even count), or 0 for no values. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// segmentStat is one measured segment's summary of one operation kind.
type segmentStat struct {
	n             int
	opsPerS       float64
	p50, p95, p99 float64 // microseconds
}

// summarizeSegment merges the per-client latency samples (nanoseconds)
// of one segment and reduces them to throughput and percentiles. The
// percentiles are global over all clients, so a stall that hits one
// client stays visible.
func summarizeSegment(perClient [][]int64, segSeconds float64) segmentStat {
	var all []int64
	for _, l := range perClient {
		all = append(all, l...)
	}
	st := segmentStat{n: len(all), opsPerS: float64(len(all)) / segSeconds}
	if len(all) == 0 {
		return st
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	st.p50 = float64(percentile(all, 0.5)) / 1e3
	st.p95 = float64(percentile(all, 0.95)) / 1e3
	st.p99 = float64(percentile(all, 0.99)) / 1e3
	return st
}

// reduceSegments is the median-of-segments reducer: the reported value
// is the median over the segments of f(segment), which keeps a
// compaction spike visible inside its segment's tail percentile while
// one noisy segment cannot move the reported number. It returns the
// per-segment values too.
func reduceSegments(segs []segmentStat, f func(segmentStat) float64) (float64, []float64) {
	per := make([]float64, len(segs))
	for i, s := range segs {
		per[i] = f(s)
	}
	return median(per), per
}

// percentileOf returns the p-quantile of ns as a float, 0 for none. ns
// is not modified.
func percentileOf(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(percentile(s, p))
}

// medianInt64 returns the median of ns as a float, 0 for none.
func medianInt64(ns []int64) float64 { return percentileOf(ns, 0.5) }

// tailOf returns the value at the tail percentile tailPercentile picks
// for ns, with that percentile; ok is false when ns is too small.
func tailOf(ns []int64) (p float64, v float64, ok bool) {
	p, ok = tailPercentile(len(ns))
	if !ok {
		return 0, 0, false
	}
	return p, percentileOf(ns, p), true
}
