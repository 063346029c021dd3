package exact

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/gen"
	"temporalrank/internal/itree"
	"temporalrank/internal/topk"
	"temporalrank/internal/tsdata"
)

// referenceScores is EXACT3's per-interval scoring: one Stab per
// endpoint into its own vector, each reported interval scored with
// Segment.IntegralFrom, then the t1 vector subtracted from the t2 one.
func referenceScores(t *testing.T, e *Exact3, t1, t2 float64) []float64 {
	t.Helper()
	sigma := func(x float64) []float64 {
		out := make([]float64, e.m)
		stabT := e.clampStatic(x)
		if err := e.tree.Stab(stabT, func(iv itree.Interval) bool {
			seg := tsdata.Segment{T1: iv.Lo, T2: iv.Hi, V1: getF64(iv.Payload[4:]), V2: getF64(iv.Payload[12:])}
			out[getSeriesID(iv.Payload)] = getF64(iv.Payload[20:]) - seg.IntegralFrom(stabT)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	h, l := sigma(t2), sigma(t1)
	for i := range h {
		h[i] -= l[i]
	}
	return h
}

// plainTopK offers every score to a collector.
func plainTopK(k int, scores []float64) []topk.Item {
	c := topk.NewCollector(k)
	for i, s := range scores {
		c.Add(tsdata.SeriesID(i), s)
	}
	return c.Results()
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func sameItems(a, b []topk.Item) bool {
	return slices.EqualFunc(a, b, func(x, y topk.Item) bool {
		return x.ID == y.ID && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// EXACT3's run-at-a-time scoring into one vector gives the per-interval
// reference's scores bit for bit, on block sizes small enough that every
// node list spans many pages.
func TestExact3ScoresMatchPerIntervalReference(t *testing.T) {
	temp, err := gen.Temp(gen.TempConfig{M: 120, Navg: 20, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	datasets := map[string]*tsdata.Dataset{
		"temp":     temp,
		"random":   randomDataset(35, 90, 25, false),
		"negative": randomDataset(36, 60, 10, true),
	}
	for name, ds := range datasets {
		for _, bs := range []int{256, 512, 4096} {
			e3, err := BuildExact3(blockio.NewViewOnlyDevice(bs), ds)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(bs)))
			var windows [][2]float64
			for i := 0; i < 40; i++ {
				a := ds.Start() - 0.1*ds.Span() + rng.Float64()*1.2*ds.Span()
				b := a + rng.Float64()*0.5*ds.Span()
				windows = append(windows, [2]float64{a, b})
			}
			// Segment endpoints, a point window and the whole domain.
			s := ds.Series(tsdata.SeriesID(rng.Intn(ds.NumSeries())))
			windows = append(windows,
				[2]float64{s.VertexTime(0), s.VertexTime(s.NumSegments())},
				[2]float64{s.VertexTime(1), s.VertexTime(1)},
				[2]float64{ds.Start(), ds.End()})
			for _, w := range windows {
				want := referenceScores(t, e3, w[0], w[1])
				got, err := e3.allScores(w[0], w[1], nil)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(*got, want) {
					t.Fatalf("%s/%d: scores over [%g,%g] differ from the per-interval reference", name, bs, w[0], w[1])
				}
				putScores(got)
				for _, k := range []int{1, 10, ds.NumSeries() + 5} {
					items, err := e3.TopK(k, w[0], w[1])
					if err != nil {
						t.Fatal(err)
					}
					if !sameItems(items, plainTopK(k, want)) {
						t.Fatalf("%s/%d: top-%d over [%g,%g] differs from the reference", name, bs, k, w[0], w[1])
					}
				}
				c := topk.NewCollector(10)
				stabT := e3.clampStatic(w[0])
				if err := e3.tree.Stab(stabT, func(iv itree.Interval) bool {
					seg := tsdata.Segment{T1: iv.Lo, T2: iv.Hi, V1: getF64(iv.Payload[4:]), V2: getF64(iv.Payload[12:])}
					c.Add(getSeriesID(iv.Payload), seg.At(stabT))
					return true
				}); err != nil {
					t.Fatal(err)
				}
				inst, _, err := e3.InstantTopK(10, w[0])
				if err != nil {
					t.Fatal(err)
				}
				if !sameItems(inst, c.Results()) {
					t.Fatalf("%s/%d: instant top-10 at %g differs from the reference", name, bs, w[0])
				}
			}
		}
	}
}

// dLarge is EXACT3 over the serving benchmark's D-large shape: 8,000
// Temp-like series of about 100 segments, with 1,024 random windows. It
// is built once per test binary, since the testing package calls a
// benchmark several times.
var dLarge struct {
	once    sync.Once
	e3      *Exact3
	windows [][2]float64
	err     error
}

func dLargeExact3(b *testing.B) (*Exact3, [][2]float64) {
	b.Helper()
	dLarge.once.Do(func() {
		ds, err := gen.Temp(gen.TempConfig{M: 8000, Navg: 100, Seed: 7})
		if err != nil {
			dLarge.err = err
			return
		}
		if dLarge.e3, dLarge.err = BuildExact3(blockio.NewViewOnlyDevice(blockio.DefaultBlockSize), ds); dLarge.err != nil {
			return
		}
		rng := rand.New(rand.NewSource(7))
		dLarge.windows = make([][2]float64, 1024)
		for i := range dLarge.windows {
			a := ds.Start() + rng.Float64()*ds.Span()
			dLarge.windows[i] = [2]float64{a, a + rng.Float64()*(ds.End()-a)}
		}
	})
	if dLarge.err != nil {
		b.Fatal(dLarge.err)
	}
	return dLarge.e3, dLarge.windows
}

// BenchmarkExact3TopK times one EXACT3 top-k query at the D-large shape,
// k = 20, over random windows.
func BenchmarkExact3TopK(b *testing.B) {
	e3, windows := dLargeExact3(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := windows[i%len(windows)]
		if _, err := e3.TopK(20, w[0], w[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExact3TopKParallel is BenchmarkExact3TopK from every
// goroutine RunParallel starts at once, all viewing one device: the
// per-query cost under concurrency (-cpu sets the goroutine count).
func BenchmarkExact3TopKParallel(b *testing.B) {
	e3, windows := dLargeExact3(b)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 97
		for pb.Next() {
			w := windows[i%len(windows)]
			i++
			if _, err := e3.TopK(20, w[0], w[1]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
