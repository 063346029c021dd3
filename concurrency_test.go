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
// path: many goroutines querying one Index (sum and instant Run,
// Score, Stats) while a writer interleaves Appends at the time
// frontier. Run with `go test -race` (CI does).

func concurrencyDB(t *testing.T) *temporalrank.DB {
	t.Helper()
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 40, Navg: 30, Seed: 11, Span: 100})
	if err != nil {
		t.Fatal(err)
	}
	return temporalrank.NewDBFromDataset(ds)
}

func hammerIndex(t *testing.T, method temporalrank.Method) {
	t.Helper()
	db := concurrencyDB(t)
	ix, err := db.BuildIndex(temporalrank.Options{Method: method, TargetR: 60, KMax: 50})
	if err != nil {
		t.Fatal(err)
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
					if _, err := ix.Run(ctx, temporalrank.SumQuery(5, t1, t2)); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := ix.Run(ctx, temporalrank.InstantQuery(5, t1)); err != nil {
						errs <- err
						return
					}
				default:
					if _, err := ix.Score(int(rng.Int31n(int32(db.NumSeries()))), t1, t2); err != nil {
						errs <- err
						return
					}
				}
				// Stats and ResetStats race-harmlessly with queries now
				// that the counters are atomic.
				_ = ix.Stats()
				if q%16 == 0 {
					ix.ResetStats()
				}
			}
		}(int64(r + 1))
	}

	// One writer appending at the frontier of round-robin objects.
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
			if err := ix.Append(a%m, tcur, rng.NormFloat64()*5); err != nil {
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

	// The index must still agree with the reference after the dust
	// settles (exact methods exactly; approximate methods have their
	// own guarantee tests, so just require a well-formed answer).
	t1 := start + span*0.3
	t2 := start + span*0.6
	ans, err := ix.Run(ctx, temporalrank.SumQuery(5, t1, t2))
	if err != nil {
		t.Fatal(err)
	}
	got := ans.Results
	if len(got) != 5 {
		t.Fatalf("got %d results, want 5", len(got))
	}
	if !ix.Method().IsApprox() {
		ref, err := db.Run(ctx, temporalrank.SumQuery(5, t1, t2))
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Results
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("rank %d: got object %d, want %d (got=%v want=%v)", i, got[i].ID, want[i].ID, got, want)
			}
		}
	}
}

func TestConcurrentQueriesAndAppendsExact3(t *testing.T) {
	hammerIndex(t, temporalrank.MethodExact3)
}

func TestConcurrentQueriesAndAppendsAppx2Plus(t *testing.T) {
	hammerIndex(t, temporalrank.MethodAppx2P)
}

// TestApproxAppendRefreshesDB pins the rule that an Append through an
// approximate index updates the DB-level aggregates immediately, not
// only at the next amortized rebuild.
func TestApproxAppendRefreshesDB(t *testing.T) {
	db := concurrencyDB(t)
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodAppx2, TargetR: 60, KMax: 50})
	if err != nil {
		t.Fatal(err)
	}
	segsBefore := db.NumSegments()
	tNew := db.End() + 5
	if err := ix.Append(0, tNew, 1.0); err != nil {
		t.Fatal(err)
	}
	if got := db.End(); got != tNew {
		t.Fatalf("db.End() = %g after append, want %g", got, tNew)
	}
	if got := db.NumSegments(); got != segsBefore+1 {
		t.Fatalf("db.NumSegments() = %d after append, want %d", got, segsBefore+1)
	}
}

// TestConcurrentDBReadsDuringAppend covers the other audited surface:
// brute-force DB reads racing an index writer over the same dataset.
func TestConcurrentDBReadsDuringAppend(t *testing.T) {
	db := concurrencyDB(t)
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact2})
	if err != nil {
		t.Fatal(err)
	}
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
		if err := ix.Append(a%db.NumSeries(), tcur, float64(a%7)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
