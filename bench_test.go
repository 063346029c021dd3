// Package-level benchmarks: one testing.B target per table/figure of
// the paper's evaluation (§5). Each benchmark drives the same harness
// as `go run ./cmd/rankbench -fig <id>` at a reduced scale so that
// `go test -bench=.` completes on a laptop; pass -benchtime=1x (the
// harness already averages internally) and raise the exp.Params fields
// via the rankbench CLI for paper-scale runs.
//
// The benchmarks print the reproduced table through b.Log-free stdout
// only under -v; their timing numbers measure one full harness pass.
package temporalrank_test

import (
	"io"
	"testing"

	"temporalrank/internal/breakpoint"
	"temporalrank/internal/core"
	"temporalrank/internal/exp"
	"temporalrank/internal/tsdata"
)

func benchBuild2Baseline(ds *tsdata.Dataset, eps float64) (*breakpoint.Set, error) {
	return breakpoint.Build2Baseline(ds, eps)
}

func benchBuild2(ds *tsdata.Dataset, eps float64) (*breakpoint.Set, error) {
	return breakpoint.Build2(ds, eps)
}

// benchParams is the shared reduced scale for `go test -bench`.
func benchParams() exp.Params {
	p := exp.DefaultParams()
	p.M = 300
	p.Navg = 60
	p.KMax = 50
	p.K = 10
	p.R = 80
	p.NumQueries = 10
	return p
}

func runFig(b *testing.B, f func(w io.Writer, p exp.Params) error) {
	b.Helper()
	p := benchParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11_Breakpoints reproduces Fig. 11a–d (preprocessing vs r).
func BenchmarkFig11_Breakpoints(b *testing.B) {
	runFig(b, func(w io.Writer, p exp.Params) error {
		_, err := exp.Fig11(w, p, []int{p.R / 2, p.R})
		return err
	})
}

// BenchmarkFig12_QueryVsR reproduces Fig. 12a–d (query quality/cost vs r).
func BenchmarkFig12_QueryVsR(b *testing.B) {
	runFig(b, func(w io.Writer, p exp.Params) error {
		_, err := exp.Fig12(w, p, []int{p.R / 2, p.R})
		return err
	})
}

// BenchmarkFig13_VaryM reproduces Fig. 13a–d (scalability in m).
func BenchmarkFig13_VaryM(b *testing.B) {
	runFig(b, func(w io.Writer, p exp.Params) error {
		_, err := exp.Fig13(w, p, []int{p.M / 2, p.M})
		return err
	})
}

// BenchmarkFig14_VaryNavg reproduces Fig. 14a–d (scalability in navg).
func BenchmarkFig14_VaryNavg(b *testing.B) {
	runFig(b, func(w io.Writer, p exp.Params) error {
		_, err := exp.Fig14(w, p, []int{p.Navg / 2, p.Navg})
		return err
	})
}

// BenchmarkFig15_Quality reproduces Fig. 15a–d (quality vs scale).
func BenchmarkFig15_Quality(b *testing.B) {
	runFig(b, func(w io.Writer, p exp.Params) error {
		_, err := exp.Fig15(w, p, []int{p.M}, []int{p.Navg})
		return err
	})
}

// BenchmarkFig16_Interval reproduces Fig. 16a–d (query interval length).
func BenchmarkFig16_Interval(b *testing.B) {
	runFig(b, func(w io.Writer, p exp.Params) error {
		_, err := exp.Fig16(w, p, []float64{0.02, 0.2, 0.5})
		return err
	})
}

// BenchmarkFig17_VaryK reproduces Fig. 17a–d (query k).
func BenchmarkFig17_VaryK(b *testing.B) {
	runFig(b, func(w io.Writer, p exp.Params) error {
		_, err := exp.Fig17(w, p, []int{p.K, p.KMax})
		return err
	})
}

// BenchmarkFig18_VaryKmax reproduces Fig. 18a–d (kmax).
func BenchmarkFig18_VaryKmax(b *testing.B) {
	runFig(b, func(w io.Writer, p exp.Params) error {
		_, err := exp.Fig18(w, p, []int{p.KMax / 2, p.KMax})
		return err
	})
}

// BenchmarkFig19_Meme reproduces Fig. 19a–d (all methods on Meme).
func BenchmarkFig19_Meme(b *testing.B) {
	runFig(b, func(w io.Writer, p exp.Params) error {
		_, err := exp.Fig19(w, p)
		return err
	})
}

// BenchmarkFig20_MemeQuality reproduces Fig. 20a–b (quality on Meme).
func BenchmarkFig20_MemeQuality(b *testing.B) {
	runFig(b, func(w io.Writer, p exp.Params) error {
		_, err := exp.Fig20(w, p)
		return err
	})
}

// BenchmarkUpdates reproduces the §4 update-cost study.
func BenchmarkUpdates(b *testing.B) {
	runFig(b, func(w io.Writer, p exp.Params) error {
		_, err := exp.Updates(w, p, 100)
		return err
	})
}

// --- ablation benches: each design choice against its alternative -----
// BREAKPOINTS1 vs BREAKPOINTS2 at one r, B2's efficient build vs its
// baseline, EXACT3 with and without a page cache, EXACT2 against EXACT3.

// BenchmarkAblation_B1VsB2 measures the two breakpoint constructions.
func BenchmarkAblation_B1VsB2(b *testing.B) {
	runFig(b, func(w io.Writer, p exp.Params) error {
		_, err := exp.Ablations(w, p)
		return err
	})
}

// BenchmarkAblation_B2Construction isolates baseline vs efficient B2.
func BenchmarkAblation_B2Construction(b *testing.B) {
	p := benchParams()
	ds, err := p.MakeDataset()
	if err != nil {
		b.Fatal(err)
	}
	eps := 0.001
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := benchBuild2Baseline(ds, eps); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("efficient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := benchBuild2(ds, eps); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_BufferPool measures EXACT3 queries with and
// without an LRU page cache.
func BenchmarkAblation_BufferPool(b *testing.B) {
	p := benchParams()
	ds, err := p.MakeDataset()
	if err != nil {
		b.Fatal(err)
	}
	qs := p.MakeQueries(ds)
	for _, cache := range []int{0, 4096} {
		cfg := core.Config{BlockSize: p.BlockSize, KMax: p.KMax, TargetR: p.R, CacheBlocks: cache}
		m, err := core.Build(core.Exact3, ds, cfg)
		if err != nil {
			b.Fatal(err)
		}
		name := "nocache"
		if cache > 0 {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				if _, err := m.TopK(p.K, q.T1, q.T2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_ForestVsInterval compares EXACT2's m per-object
// prefix-sum runs (the paper's forest) against EXACT3's single interval
// tree on the same queries.
func BenchmarkAblation_ForestVsInterval(b *testing.B) {
	p := benchParams()
	ds, err := p.MakeDataset()
	if err != nil {
		b.Fatal(err)
	}
	qs := p.MakeQueries(ds)
	for _, name := range []core.MethodName{core.Exact2, core.Exact3} {
		m, err := core.Build(name, ds, core.Config{BlockSize: p.BlockSize})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				if _, err := m.TopK(p.K, q.T1, q.T2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- micro-benchmarks on the hot query paths ---------------------------

// BenchmarkQuery_PerMethod measures a single top-k query per method at
// the shared bench scale (the per-op numbers behind Figs. 12d/13d).
func BenchmarkQuery_PerMethod(b *testing.B) {
	p := benchParams()
	ds, err := p.MakeDataset()
	if err != nil {
		b.Fatal(err)
	}
	qs := p.MakeQueries(ds)
	for _, name := range core.AllMethods() {
		m, err := core.Build(name, ds, core.Config{BlockSize: p.BlockSize, KMax: p.KMax, TargetR: p.R})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				if _, err := m.TopK(p.K, q.T1, q.T2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuild_PerMethod measures index construction per method.
func BenchmarkBuild_PerMethod(b *testing.B) {
	p := benchParams()
	p.M = 150 // keep APPX1's r² construction inside bench budgets
	ds, err := p.MakeDataset()
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range core.AllMethods() {
		b.Run(string(name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(name, ds, core.Config{BlockSize: p.BlockSize, KMax: p.KMax, TargetR: p.R}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
