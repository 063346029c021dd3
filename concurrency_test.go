package temporalrank_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"temporalrank"
	"temporalrank/internal/gen"
)

// These tests are the -race regression net for the concurrent read
// path: many goroutines querying one Planner (sum and instant Run,
// Score, index Stats) while a writer interleaves Appends at the time
// frontier and background compactions swap in rebuilt generations.
// Run with `go test -race` (CI does).

func concurrencyDB(t *testing.T) *temporalrank.DB {
	t.Helper()
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 40, Navg: 30, Seed: 11, Span: 100})
	if err != nil {
		t.Fatal(err)
	}
	return temporalrank.NewDBFromDataset(ds)
}

func hammerPlanner(t *testing.T, method temporalrank.Method) {
	t.Helper()
	db := concurrencyDB(t)
	ref := concurrencyDB(t)
	ix, err := db.BuildIndex(temporalrank.Options{Method: method, TargetR: 60, KMax: 50})
	if err != nil {
		t.Fatal(err)
	}
	p, err := temporalrank.NewPlanner(db, ix)
	if err != nil {
		t.Fatal(err)
	}
	// A small flush threshold makes background compactions swap the
	// generation under the readers several times.
	if err := p.EnableMemtable(temporalrank.MemtableOptions{FlushSegments: 32}); err != nil {
		t.Fatal(err)
	}
	maxEps := 0.0
	if method.IsApprox() {
		maxEps = 1
	}

	const (
		readers          = 8
		queriesPerReader = 60
		appends          = 120
	)
	start, end := db.Start(), db.End()
	span := end - start

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < queriesPerReader; q++ {
				t1 := start + rng.Float64()*span*0.8
				t2 := t1 + rng.Float64()*span*0.2
				switch q % 4 {
				case 0, 1:
					sum := temporalrank.SumQuery(5, t1, t2)
					sum.MaxEpsilon = maxEps
					if _, err := p.Run(ctx, sum); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := p.Run(ctx, temporalrank.InstantQuery(5, t1)); err != nil {
						errs <- err
						return
					}
				default:
					if _, err := p.Score(int(rng.Int31n(int32(db.NumSeries()))), t1, t2); err != nil {
						errs <- err
						return
					}
				}
				// Stats and ResetStats race-harmlessly with queries: the
				// counters are atomic.
				for _, cur := range p.Indexes() {
					_ = cur.Stats()
					if q%16 == 0 {
						cur.ResetStats()
					}
				}
			}
		}(int64(r + 1))
	}

	// One writer appending at the frontier of round-robin objects,
	// mirrored into the reference.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		m := db.NumSeries()
		// Appends must land strictly after each object's current end;
		// march one shared clock forward past the global domain.
		tcur := end
		for a := 0; a < appends; a++ {
			tcur += 0.5 + rng.Float64()
			v := rng.NormFloat64() * 5
			if err := p.Append(a%m, tcur, v); err != nil {
				errs <- err
				return
			}
			if err := ref.Append(a%m, tcur, v); err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The planner must still agree with the reference after the dust
	// settles, before and after draining the memtable (exact methods
	// exactly; approximate methods have their own guarantee tests, so
	// just require a well-formed answer).
	q := temporalrank.SumQuery(5, start+span*0.3, ref.End())
	q.MaxEpsilon = maxEps
	want, err := ref.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"merged", "compacted"} {
		ans, err := p.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got := ans.Results
		if len(got) != 5 {
			t.Fatalf("%s: got %d results, want 5", stage, len(got))
		}
		if ans.Exact {
			checkExact(t, stage, ans, want)
		}
		if err := p.Compact(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentQueriesAndAppendsExact3(t *testing.T) {
	hammerPlanner(t, temporalrank.MethodExact3)
}

func TestConcurrentQueriesAndAppendsAppx2Plus(t *testing.T) {
	hammerPlanner(t, temporalrank.MethodAppx2P)
}

// TestApproxAppendRefreshesDB pins when an append through a planner
// over an approximate index reaches the DB-level aggregates: queries
// see it at once, the DB the planner routes over at the next
// compaction, and the DB the planner was built over never.
func TestApproxAppendRefreshesDB(t *testing.T) {
	db := concurrencyDB(t)
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodAppx2, TargetR: 60, KMax: 50})
	if err != nil {
		t.Fatal(err)
	}
	p, err := temporalrank.NewPlanner(db, ix)
	if err != nil {
		t.Fatal(err)
	}
	segsBefore, endBefore := db.NumSegments(), db.End()
	tNew := endBefore + 5
	if err := p.Append(0, tNew, 1e6); err != nil {
		t.Fatal(err)
	}
	q := temporalrank.SumQuery(1, endBefore, tNew)
	q.MaxEpsilon = 1
	ans, err := p.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) != 1 || ans.Results[0].ID != 0 {
		t.Fatalf("the appended spike does not lead its window: %v", ans.Results)
	}
	if err := p.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.DB().End(); got != tNew {
		t.Fatalf("planner DB End() = %g after compaction, want %g", got, tNew)
	}
	if got := p.DB().NumSegments(); got != segsBefore+1 {
		t.Fatalf("planner DB NumSegments() = %d after compaction, want %d", got, segsBefore+1)
	}
	if db.End() != endBefore || db.NumSegments() != segsBefore {
		t.Fatal("the planner's append mutated the DB it was built over")
	}
}

// TestConcurrentDBReadsDuringAppend covers the other audited surface:
// brute-force DB reads racing DB.Append, the standalone reference's
// in-place writer.
func TestConcurrentDBReadsDuringAppend(t *testing.T) {
	db := concurrencyDB(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				t1 := db.Start() + rng.Float64()*50
				for _, q := range []temporalrank.Query{temporalrank.SumQuery(3, t1, t1+10), temporalrank.InstantQuery(3, t1)} {
					if _, err := db.Run(context.Background(), q); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := db.Score(int(rng.Int31n(int32(db.NumSeries()))), t1, t1+10); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(r + 50))
	}
	tcur := db.End()
	for a := 0; a < 100; a++ {
		tcur += 1
		if err := db.Append(a%db.NumSeries(), tcur, float64(a%7)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
