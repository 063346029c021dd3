// Serving hot-path benchmarks: the result cache and the zero-alloc
// query scans. Unlike bench_test.go (which reproduces the paper's
// figures), these measure the read path a production deployment
// actually serves — repeated and concurrent queries through a Planner.
package temporalrank_test

import (
	"context"
	"testing"

	"temporalrank"
	"temporalrank/internal/gen"
)

func benchPlanner(b testing.TB, resultCache int) (*temporalrank.DB, *temporalrank.Planner) {
	b.Helper()
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 300, Navg: 60, Seed: 3, Span: 1000})
	if err != nil {
		b.Fatal(err)
	}
	db := temporalrank.NewDBFromDataset(ds)
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3, CacheBlocks: 1024})
	if err != nil {
		b.Fatal(err)
	}
	p, err := temporalrank.NewPlanner(db, ix)
	if err != nil {
		b.Fatal(err)
	}
	if resultCache > 0 {
		p.EnableResultCache(resultCache)
	}
	return db, p
}

// BenchmarkPlannerCachedRun measures a repeated-query workload through
// Planner.Run with and without the result cache. The uncached case
// re-runs the full index scan every iteration (its allocs/op are the
// scan's working set); the cached case answers from the versioned
// result cache after the first run. The acceptance bar is a measurable
// drop in allocs/op for the repeated query.
func BenchmarkPlannerCachedRun(b *testing.B) {
	ctx := context.Background()
	run := func(b *testing.B, resultCache int) {
		db, p := benchPlanner(b, resultCache)
		// A small rotation of repeated queries, as a zipfian serving mix
		// would see for its hot keys.
		span := db.Span()
		qs := make([]temporalrank.Query, 8)
		for i := range qs {
			t1 := db.Start() + span*float64(i)/16
			qs[i] = temporalrank.SumQuery(10, t1, t1+span/4)
		}
		// Warm every rotation slot before the clock starts, so the cached
		// case measures steady-state hits (CI asserts 0 allocs/op on it at
		// -benchtime=1x) rather than the first miss.
		for _, q := range qs {
			if _, err := p.Run(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Run(ctx, qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b, 0) })
	b.Run("cached", func(b *testing.B) { run(b, 64) })
}

// BenchmarkPlannerCachedRunParallel is the concurrent variant: under
// RunParallel the cached case also exercises request coalescing.
func BenchmarkPlannerCachedRunParallel(b *testing.B) {
	ctx := context.Background()
	run := func(b *testing.B, resultCache int) {
		db, p := benchPlanner(b, resultCache)
		q := temporalrank.SumQuery(10, db.Start()+db.Span()/4, db.End()-db.Span()/4)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := p.Run(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("uncached", func(b *testing.B) { run(b, 0) })
	b.Run("cached", func(b *testing.B) { run(b, 64) })
}

// mergedPlanner returns an EXACT3 planner over an m × navg random walk
// whose memtable holds `appends` segments, dealt round-robin to the
// series from the first on, plus eight latest-window sums ending at the
// append frontier, whose EXACT3 merge adds every appended run's delta.
func mergedPlanner(tb testing.TB, m, navg, appends int) (*temporalrank.Planner, []temporalrank.Query) {
	tb.Helper()
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: m, Navg: navg, Seed: 3, Span: 1000})
	if err != nil {
		tb.Fatal(err)
	}
	db := temporalrank.NewDBFromDataset(ds)
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := temporalrank.NewPlanner(db, ix)
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.EnableMemtable(temporalrank.MemtableOptions{DisableAutoCompact: true}); err != nil {
		tb.Fatal(err)
	}
	frontier := db.End()
	for i := 0; i < appends; i++ {
		frontier = db.End() + 1 + float64(i/m)
		if err := p.Append(i%m, frontier, 1+float64(i%7)); err != nil {
			tb.Fatal(err)
		}
	}
	qs := make([]temporalrank.Query, 8)
	for i := range qs {
		w := (0.01 + 0.09*float64(i)/7) * db.Span()
		qs[i] = temporalrank.SumQuery(10, frontier-w, frontier)
	}
	return p, qs
}

// BenchmarkPlannerMergedRun measures the latest-window read under a
// full memtable: a 1,000 × 100 EXACT3 planner with 1,024 appended
// segments, every query merging about a thousand series' deltas.
func BenchmarkPlannerMergedRun(b *testing.B) {
	ctx := context.Background()
	p, qs := mergedPlanner(b, 1000, 100, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(ctx, qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}
