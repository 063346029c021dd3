package temporalrank_test

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"temporalrank"
)

// These tests pin the result cache's correctness contract: a cached
// query must observe every completed Append (version bump — staleness
// is impossible), and concurrent identical queries must coalesce into
// one run while every caller receives an identical Answer. Run with
// `go test -race` (CI does).

func cachePlanner(t *testing.T) (*temporalrank.DB, *temporalrank.Planner) {
	t.Helper()
	inputs := clusterInputs(t, 40, 25, 7)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := temporalrank.NewPlanner(db, ix)
	if err != nil {
		t.Fatal(err)
	}
	p.EnableResultCache(32)
	return db, p
}

// TestResultCachePostAppend: after Planner.Append, a previously cached
// query must return the post-append answer, not the stored one.
func TestResultCachePostAppend(t *testing.T) {
	db, p := cachePlanner(t)
	ref := db.Snapshot()
	ctx := context.Background()
	q := temporalrank.SumQuery(5, db.Start(), db.End())

	first, err := p.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache and verify it actually serves hits.
	again, err := p.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "cached repeat", again.Results, first.Results)
	if st, ok := p.CacheStats(); !ok || st.Hits == 0 {
		t.Fatalf("cache stats = %+v ok=%v, want >= 1 hit", st, ok)
	}

	// A large appended spike must change the winner; the cached entry
	// must not survive the version bump.
	loser := first.Results[len(first.Results)-1].ID
	if err := p.Append(loser, db.End()+10, 1e7); err != nil {
		t.Fatal(err)
	}
	refDB := temporalrank.NewDBFromDataset(ref)
	if err := refDB.Append(loser, db.End()+10, 1e7); err != nil {
		t.Fatal(err)
	}
	after, err := p.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refDB.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "post-append", after.Results, want.Results)
	if after.Results[0].ID == first.Results[0].ID && first.Results[0].ID != loser {
		t.Fatalf("post-append answer still led by pre-append winner %d (stale cache?)", first.Results[0].ID)
	}
}

// TestResultCacheAppendThroughAnyPath: both append paths bump their
// version — Planner.Append on an index-less planner invalidates its
// cached answer, and DB.Append on the standalone reference fed the
// same segment bumps the DB's.
func TestResultCacheAppendThroughAnyPath(t *testing.T) {
	inputs := clusterInputs(t, 20, 15, 9)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := temporalrank.NewPlanner(db)
	if err != nil {
		t.Fatal(err)
	}
	p.EnableResultCache(8)
	ctx := context.Background()
	q := temporalrank.SumQuery(3, db.Start(), db.End())
	if _, err := p.Run(ctx, q); err != nil {
		t.Fatal(err)
	}
	ref, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	pv, rv := p.DataVersion(), ref.DataVersion()
	tNew := db.End() + 5
	if err := p.Append(0, tNew, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := ref.Append(0, tNew, 1e6); err != nil {
		t.Fatal(err)
	}
	if got := p.DataVersion(); got != pv+1 {
		t.Fatalf("planner DataVersion = %d after Planner.Append, want %d", got, pv+1)
	}
	if got := ref.DataVersion(); got != rv+1 {
		t.Fatalf("DataVersion = %d after DB.Append, want %d", got, rv+1)
	}
	after, err := p.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "post-append", after.Results, want.Results)
}

// TestResultCacheCoalescedIdentical: concurrent identical queries on a
// cached planner must all receive identical Answers (the coalescing
// path shares one flight's result).
func TestResultCacheCoalescedIdentical(t *testing.T) {
	db, p := cachePlanner(t)
	ctx := context.Background()
	q := temporalrank.SumQuery(8, db.Start()+db.Span()*0.2, db.End()-db.Span()*0.2)

	const callers = 16
	var wg sync.WaitGroup
	answers := make([]temporalrank.Answer, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], errs[i] = p.Run(ctx, q)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(answers[i].Results, answers[0].Results) {
			t.Fatalf("caller %d results differ:\n got %v\nwant %v", i, answers[i].Results, answers[0].Results)
		}
	}
	st, ok := p.CacheStats()
	if !ok {
		t.Fatal("cache not attached")
	}
	if st.Misses == 0 {
		t.Fatalf("stats = %+v, want at least one executing miss", st)
	}
	if st.Hits+st.Coalesced+st.Misses != callers {
		t.Fatalf("stats = %+v, lookups don't sum to %d", st, callers)
	}
}

// TestClusterCacheEquivalenceWithAppends re-runs the Cluster ≡ DB
// equivalence contract with the result cache enabled and Appends
// interleaved between repeated queries: every repetition must match the
// reference DB's current answer, before and after each append.
func TestClusterCacheEquivalenceWithAppends(t *testing.T) {
	inputs := clusterInputs(t, 50, 25, 13)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := temporalrank.NewCluster(inputs, temporalrank.ClusterOptions{
		Shards:      4,
		ResultCache: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(77))
	start, span := db.Start(), db.Span()

	queries := make([]temporalrank.Query, 6)
	for i := range queries {
		t1 := start + rng.Float64()*span*0.6
		queries[i] = temporalrank.SumQuery(1+rng.Intn(8), t1, t1+rng.Float64()*span*0.3)
	}
	check := func(round int) {
		for qi, q := range queries {
			got, err := cl.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := db.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			sameRanking(t, "round "+string(rune('0'+round))+" query "+string(rune('0'+qi)), got.Results, want.Results)
		}
	}
	check(0)
	check(1) // repeat: served from cache, must still match
	tcur := db.End()
	for round := 2; round < 5; round++ {
		// Append the same segments to both sides, then re-run the same
		// queries: cached pre-append entries must be unreachable.
		for a := 0; a < 5; a++ {
			id := rng.Intn(db.NumSeries())
			tcur += 1 + rng.Float64()
			v := rng.NormFloat64() * 50
			if err := cl.Append(id, tcur, v); err != nil {
				t.Fatal(err)
			}
			if err := db.Append(id, tcur, v); err != nil {
				t.Fatal(err)
			}
		}
		check(round)
	}
	if st, ok := cl.CacheStats(); !ok || st.Hits == 0 {
		t.Fatalf("cluster cache stats = %+v ok=%v, want hits > 0", st, ok)
	}
}

// TestCacheKeyDistinguishesQueries: different queries must never share
// an entry, including spelling variants that only canonicalization may
// merge.
func TestCacheKeyDistinguishesQueries(t *testing.T) {
	db, p := cachePlanner(t)
	ctx := context.Background()
	t1, t2 := db.Start(), db.End()
	qs := []temporalrank.Query{
		temporalrank.SumQuery(5, t1, t2),
		temporalrank.AvgQuery(5, t1, t2),
		temporalrank.SumQuery(6, t1, t2),
		temporalrank.SumQuery(5, t1, t2-1),
		{Agg: temporalrank.AggSum, K: 5, T1: t1, T2: t2, MaxEpsilon: 0.5},
	}
	for _, q := range qs {
		got, err := p.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		// MaxEpsilon > 0 may route differently, but this planner has only
		// exact indexes, so every variant must still match the reference.
		sameRanking(t, "distinct query", got.Results, want.Results)
	}
	// The zero-Agg spelling of a sum query must share the sum entry.
	if _, err := p.Run(ctx, temporalrank.Query{K: 5, T1: t1, T2: t2}); err != nil {
		t.Fatal(err)
	}
	st, _ := p.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("stats = %+v: zero-Agg spelling did not hit the AggSum entry", st)
	}
}
