package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"temporalrank"
	"temporalrank/internal/gen"
)

func testDB(t *testing.T) *temporalrank.DB {
	t.Helper()
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 60, Navg: 40, Seed: 7, Span: 100})
	if err != nil {
		t.Fatal(err)
	}
	return temporalrank.NewDBFromDataset(ds)
}

// mustRun answers q through qr, failing the test on error.
func mustRun(t *testing.T, qr temporalrank.Querier, q temporalrank.Query) []temporalrank.Result {
	t.Helper()
	ans, err := qr.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return ans.Results
}

func sameIDs(a, b []temporalrank.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// TestExecBatchMatchesReference runs a large batch through a pool over
// a single index and checks every answer against the brute-force
// reference, and the executor's lifetime stats against the batch.
func TestExecBatchMatchesReference(t *testing.T) {
	db := testDB(t)
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	e := NewQuerier(ix, 8)
	defer e.Close()

	rng := rand.New(rand.NewSource(42))
	span := db.End() - db.Start()
	qs := make([]temporalrank.Query, 200)
	for i := range qs {
		t1 := db.Start() + rng.Float64()*span*0.8
		t2 := t1 + rng.Float64()*span*0.2
		qs[i] = temporalrank.SumQuery(5, t1, t2)
	}
	results := e.RunBatch(context.Background(), qs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		want := mustRun(t, db, qs[i])
		if !sameIDs(r.Answer.Results, want) {
			t.Fatalf("query %d: got %v want %v", i, r.Answer.Results, want)
		}
	}
	st := e.Stats()
	if st.Queries != 200 {
		t.Fatalf("stats: got %d queries, want 200", st.Queries)
	}
	if st.Errors != 0 {
		t.Fatalf("stats: got %d errors, want 0", st.Errors)
	}
}

// TestDoOps exercises each aggregate through Run.
func TestDoOps(t *testing.T) {
	db := testDB(t)
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	e := NewQuerier(ix, 2)
	defer e.Close()
	ctx := context.Background()
	mid := (db.Start() + db.End()) / 2

	if ans, err := e.Run(ctx, temporalrank.SumQuery(3, db.Start(), db.End())); err != nil || len(ans.Results) != 3 {
		t.Fatalf("sum: %v %+v", err, ans)
	}
	if ans, err := e.Run(ctx, temporalrank.AvgQuery(3, db.Start(), db.End())); err != nil || len(ans.Results) != 3 {
		t.Fatalf("avg: %v %+v", err, ans)
	}
	if ans, err := e.Run(ctx, temporalrank.InstantQuery(3, mid)); err != nil || len(ans.Results) != 3 {
		t.Fatalf("instant: %v %+v", err, ans)
	}
	if _, err := e.Run(ctx, temporalrank.Query{Agg: temporalrank.Agg("nope")}); err == nil {
		t.Fatal("unknown aggregate should fail")
	}
}

// TestClosedExecutor verifies clean failure after Close.
func TestClosedExecutor(t *testing.T) {
	db := testDB(t)
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact1})
	if err != nil {
		t.Fatal(err)
	}
	e := NewQuerier(ix, 2)
	e.Close()
	e.Close() // idempotent
	if _, err := e.Run(context.Background(), temporalrank.SumQuery(1, 0, 1)); err == nil {
		t.Fatal("Run after Close should fail")
	}
}

// TestBuildIndexesParallel builds all eight methods with parallel
// per-index construction (BuildWorkers) and cross-checks one query per
// index against the reference.
func TestBuildIndexesParallel(t *testing.T) {
	db := testDB(t)
	t1 := db.Start() + (db.End()-db.Start())*0.3
	t2 := db.Start() + (db.End()-db.Start())*0.7
	q := temporalrank.SumQuery(5, t1, t2)
	want := mustRun(t, db, q)
	for _, m := range temporalrank.Methods() {
		ix, err := db.BuildIndex(temporalrank.Options{Method: m, TargetR: 80, KMax: 50, BuildWorkers: 4})
		if err != nil {
			t.Fatalf("build %s: %v", m, err)
		}
		ans, err := ix.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		got := ans.Results
		if len(got) != len(want) {
			t.Fatalf("%s: got %d results, want %d", m, len(got), len(want))
		}
		// Exact methods must match the reference exactly.
		if !m.IsApprox() && !sameIDs(got, want) {
			t.Fatalf("%s: got %v want %v", m, got, want)
		}
	}
}

// TestExact2ParallelBuildMatchesSequential verifies the per-series
// parallel construction answers identically to the sequential build.
func TestExact2ParallelBuildMatchesSequential(t *testing.T) {
	db := testDB(t)
	seq, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact2})
	if err != nil {
		t.Fatal(err)
	}
	par, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact2, BuildWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	span := db.End() - db.Start()
	for q := 0; q < 50; q++ {
		t1 := db.Start() + rng.Float64()*span*0.8
		t2 := t1 + rng.Float64()*span*0.2
		a := mustRun(t, seq, temporalrank.SumQuery(7, t1, t2))
		b := mustRun(t, par, temporalrank.SumQuery(7, t1, t2))
		if !sameIDs(a, b) {
			t.Fatalf("query %d: sequential %v parallel %v", q, a, b)
		}
	}
}

// TestRunBatchQueries drives the unified Query path through the pool
// and cross-checks the reference, including planner-backed executors.
func TestRunBatchQueries(t *testing.T) {
	db := testDB(t)
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	planner, err := temporalrank.NewPlanner(db, ix)
	if err != nil {
		t.Fatal(err)
	}
	e := NewQuerier(planner, 8)
	defer e.Close()

	rng := rand.New(rand.NewSource(9))
	span := db.End() - db.Start()
	qs := make([]temporalrank.Query, 100)
	for i := range qs {
		t1 := db.Start() + rng.Float64()*span*0.8
		qs[i] = temporalrank.SumQuery(5, t1, t1+rng.Float64()*span*0.2)
	}
	results := e.RunBatch(context.Background(), qs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if !r.Answer.Exact {
			t.Fatalf("query %d: exact index answered approximately", i)
		}
		if !sameIDs(r.Answer.Results, mustRun(t, db, qs[i])) {
			t.Fatalf("query %d: wrong answer", i)
		}
	}

	// Executor is itself a Querier.
	var q temporalrank.Querier = e
	ans, err := q.Run(context.Background(), temporalrank.SumQuery(3, db.Start(), db.End()))
	if err != nil || len(ans.Results) != 3 {
		t.Fatalf("executor as Querier: %v %+v", err, ans)
	}
}

// TestBatchCancellation is the acceptance test for context threading:
// cancelling an in-flight batch terminates it promptly — queued jobs
// are dropped without touching the backend, and only the at-most-
// Workers() queries already executing finish. Run under -race.
func TestBatchCancellation(t *testing.T) {
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 400, Navg: 60, Seed: 3, Span: 100})
	if err != nil {
		t.Fatal(err)
	}
	db := temporalrank.NewDBFromDataset(ds)
	// The brute-force backend scans all 400 series per query, so a
	// batch of 500 queries on 2 workers is far from done when we cancel.
	e := NewQuerier(db, 2)
	defer e.Close()

	qs := make([]temporalrank.Query, 500)
	for i := range qs {
		qs[i] = temporalrank.SumQuery(10, db.Start(), db.End())
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []Result, 1)
	go func() { done <- e.RunBatch(ctx, qs) }()
	cancel()

	results := <-done
	var cancelled, completed int
	for _, r := range results {
		switch {
		case r.Err == nil:
			completed++
		case errors.Is(r.Err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("unexpected error: %v", r.Err)
		}
	}
	if cancelled == 0 {
		t.Fatal("cancellation observed no ctx.Err() results")
	}
	if completed == len(qs) {
		t.Fatal("every query completed despite cancellation")
	}
	t.Logf("batch of %d: %d completed, %d cancelled", len(qs), completed, cancelled)
}
