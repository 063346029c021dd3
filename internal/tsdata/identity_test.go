package tsdata

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceSolveAbs is SolveAbsIntegralForward as it stood before the
// solver took its caller's ∫|g| over [from, T2]: it evaluates that
// integral for its check and again for a one-piece split.
func referenceSolveAbs(s Segment, from, target float64) (float64, bool) {
	if target <= 0 {
		return from, true
	}
	if s.AbsIntegralOver(from, s.T2)*(1+1e-12) < target {
		return 0, false
	}
	cuts := []float64{from, s.T2}
	if (s.V1 < 0) != (s.V2 < 0) && s.V1 != s.V2 {
		tz := s.T1 + (s.T2-s.T1)*s.V1/(s.V1-s.V2)
		if tz > from && tz < s.T2 {
			cuts = []float64{from, tz, s.T2}
		}
	}
	w := s.Slope()
	remaining := target
	for p := 0; p+1 < len(cuts); p++ {
		a, b := cuts[p], cuts[p+1]
		area := s.AbsIntegralOver(a, b)
		if remaining > area && p+2 < len(cuts) {
			remaining -= area
			continue
		}
		sign := 1.0
		if s.At((a+b)/2) < 0 {
			sign = -1
		}
		v0 := sign * s.At(a)
		if v0 < 0 {
			v0 = 0
		}
		if remaining > area {
			remaining = area
		}
		dt, ok := solveQuadIntegral(v0, sign*w, remaining, b-a)
		if !ok {
			return b, true
		}
		return a + dt, true
	}
	return 0, false
}

// SolveAbsIntegralForwardWith, handed AbsIntegralOver(from, T2), and
// the SolveAbsIntegralForward wrapper return the reference's bits on
// random segments: two-piece splits at a zero crossing, from at T1, on
// the crossing, either side of it and next to T2, and targets at and
// around each piece's area, zero and negative.
func TestSolveAbsWithIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	segs := []Segment{
		{T1: 0, T2: 4, V1: -2, V2: 2},
		{T1: 0, T2: 4, V1: 2, V2: -2},
		{T1: 1, T2: 9, V1: 0, V2: 5},
		{T1: 1, T2: 9, V1: -5, V2: 0},
		{T1: 1, T2: 9, V1: 3, V2: 3},
		{T1: 1, T2: 9, V1: -3, V2: -3},
	}
	for range 3000 {
		t1 := rng.Float64() * 100
		s := Segment{T1: t1, T2: t1 + 1e-3 + rng.Float64()*10, V1: rng.Float64()*100 - 50, V2: rng.Float64()*100 - 50}
		if rng.Intn(4) == 0 {
			s.V2 = math.Copysign(s.V2, s.V1) // no crossing
		}
		segs = append(segs, s)
	}
	checked := 0
	for _, s := range segs {
		froms := []float64{s.T1, math.Nextafter(s.T2, s.T1), s.T1 + rng.Float64()*(s.T2-s.T1)}
		if (s.V1 < 0) != (s.V2 < 0) && s.V1 != s.V2 {
			tz := s.T1 + (s.T2-s.T1)*s.V1/(s.V1-s.V2)
			froms = append(froms, tz, math.Nextafter(tz, s.T1), math.Nextafter(tz, s.T2))
		}
		for _, from := range froms {
			if from < s.T1 || from >= s.T2 {
				continue
			}
			rest := s.AbsIntegralOver(from, s.T2)
			targets := []float64{0, -1, rest, rest * (1 + 1e-13), rest * (1 + 1e-11), rest * 2, math.SmallestNonzeroFloat64}
			for range 4 {
				targets = append(targets, rest*rng.Float64())
			}
			if (s.V1 < 0) != (s.V2 < 0) && s.V1 != s.V2 {
				tz := s.T1 + (s.T2-s.T1)*s.V1/(s.V1-s.V2)
				if first := s.AbsIntegralOver(from, tz); tz > from {
					targets = append(targets, first, math.Nextafter(first, 0), math.Nextafter(first, math.Inf(1)))
				}
			}
			for _, target := range targets {
				wt, wok := referenceSolveAbs(s, from, target)
				for name, solve := range map[string]func() (float64, bool){
					"With":    func() (float64, bool) { return s.SolveAbsIntegralForwardWith(from, target, rest) },
					"wrapper": func() (float64, bool) { return s.SolveAbsIntegralForward(from, target) },
				} {
					gt, gok := solve()
					if gok != wok || math.Float64bits(gt) != math.Float64bits(wt) {
						t.Fatalf("%s: %v from %g target %g: (%g, %v), reference (%g, %v)", name, s, from, target, gt, gok, wt, wok)
					}
				}
				checked++
			}
		}
	}
	t.Logf("%d solves identical", checked)
}

// RangesFrom gives Range's bits at nondecreasing right ends, whatever
// the left end: before the series, on its first vertex, between or on
// vertices, on its last vertex or past it; and right ends before the
// domain, on every vertex, on the last one, past it and repeated.
func TestRangesFromIdenticalToRange(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		s := randomSeries(rng, 0, 1+rng.Intn(30), trial%2 == 0)
		n := s.NumSegments()
		t1s := []float64{
			s.Start() - 1, s.Start(), s.VertexTime(n / 2), s.End(), s.End() + 1,
			s.Start() + rng.Float64()*(s.End()-s.Start()),
		}
		t2s := []float64{s.Start() - 2, s.Start(), s.End(), s.End(), s.End() + 3}
		for j := 0; j <= n; j++ {
			t2s = append(t2s, s.VertexTime(j))
			if rng.Intn(2) == 0 {
				t2s = append(t2s, s.Start()+rng.Float64()*(s.End()-s.Start()))
			}
		}
		slices.Sort(t2s)
		dst := make([]float64, len(t2s))
		for _, t1 := range t1s {
			for j := range dst {
				dst[j] = math.NaN() // every entry must be written
			}
			s.RangesFrom(t1, t2s, dst)
			for j, t2 := range t2s {
				if want := s.Range(t1, t2); math.Float64bits(dst[j]) != math.Float64bits(want) {
					t.Fatalf("trial %d: Range(%g, %g) = %g, RangesFrom gives %g", trial, t1, t2, want, dst[j])
				}
			}
		}
	}
}
