package temporalrank

import (
	"context"
	"errors"
	"math"
	"testing"

	"temporalrank/internal/core"
	"temporalrank/internal/gen"
)

func genDB(t *testing.T) *DB {
	t.Helper()
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 40, Navg: 30, Seed: 7, Span: 100})
	if err != nil {
		t.Fatal(err)
	}
	return NewDBFromDataset(ds)
}

func sameIDs(a, b []Result) bool {
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

// TestQueryValidate covers the typed validation paths.
func TestQueryValidate(t *testing.T) {
	valid := Query{K: 3, T1: 0, T2: 1}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	cases := []struct {
		name string
		q    Query
		want error
	}{
		{"inverted", Query{K: 3, T1: 5, T2: 1}, ErrBadInterval},
		{"nan t1", Query{K: 3, T1: math.NaN(), T2: 1}, ErrBadInterval},
		{"inf t2", Query{K: 3, T1: 0, T2: math.Inf(1)}, ErrBadInterval},
		{"avg zero width", Query{Agg: AggAvg, K: 3, T1: 2, T2: 2}, ErrBadInterval},
	}
	for _, c := range cases {
		if err := c.q.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	if err := (Query{K: 0, T1: 0, T2: 1}).Validate(); err == nil {
		t.Error("k=0 accepted")
	}
	if err := (Query{Agg: "median", K: 3, T1: 0, T2: 1}).Validate(); err == nil {
		t.Error("unknown aggregate accepted")
	}
	// Instant queries ignore T2 entirely.
	if err := (Query{Agg: AggInstant, K: 1, T1: 5, T2: math.NaN()}).Validate(); err != nil {
		t.Errorf("instant query with unused T2 rejected: %v", err)
	}
}

// TestDBRunMatchesLegacy: the unified path answers exactly what the
// per-aggregate reference routines answer.
func TestDBRunMatchesLegacy(t *testing.T) {
	db := genDB(t)
	ctx := context.Background()
	t1, t2 := db.Start(), db.End()
	mid := (t1 + t2) / 2

	ans, err := db.Run(ctx, SumQuery(5, t1, t2))
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Exact || ans.Method != MethodReference {
		t.Fatalf("brute force misreported: %+v", ans)
	}
	if !sameIDs(ans.Results, toResults(core.Reference(db.ds, 5, t1, t2))) {
		t.Fatal("sum: Run disagrees with core.Reference")
	}

	avg, err := db.Run(ctx, AvgQuery(5, t1, t2))
	if err != nil {
		t.Fatal(err)
	}
	width := t2 - t1
	for i, r := range avg.Results {
		if want := ans.Results[i].Score / width; math.Abs(r.Score-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("avg rank %d: %g, want %g", i, r.Score, want)
		}
	}

	inst, err := db.Run(ctx, InstantQuery(5, mid))
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(inst.Results, db.instantTopK(5, mid)) {
		t.Fatal("instant: Run disagrees with instantTopK")
	}
}

// TestIndexRunAllMethods runs the unified path through every method
// and checks the Answer metadata.
func TestIndexRunAllMethods(t *testing.T) {
	db := genDB(t)
	ctx := context.Background()
	t1, t2 := db.Start(), db.End()
	for _, m := range Methods() {
		ix, err := db.BuildIndex(Options{Method: m, TargetR: 60, KMax: 20})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		ans, err := ix.Run(ctx, SumQuery(5, t1, t2))
		if err != nil {
			t.Fatalf("%s: Run: %v", m, err)
		}
		if ans.Method != m {
			t.Errorf("%s: answer names %s", m, ans.Method)
		}
		if ans.Exact == m.IsApprox() {
			t.Errorf("%s: Exact=%v", m, ans.Exact)
		}
		if m.IsApprox() && ans.Epsilon <= 0 {
			t.Errorf("%s: epsilon %g, want > 0", m, ans.Epsilon)
		}
		// Instant answers are exact regardless of method.
		inst, err := ix.Run(ctx, InstantQuery(3, (t1+t2)/2))
		if err != nil {
			t.Fatalf("%s: instant: %v", m, err)
		}
		if !inst.Exact || inst.Epsilon != 0 {
			t.Errorf("%s: instant misreported: %+v", m, inst)
		}
	}
}

// TestRunContextCancelled: every Querier rejects an already-cancelled
// context without touching the data.
func TestRunContextCancelled(t *testing.T) {
	db := genDB(t)
	ix, err := db.BuildIndex(Options{Method: MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(db, ix)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []Querier{db, ix, p} {
		if _, err := q.Run(ctx, SumQuery(3, db.Start(), db.End())); !errors.Is(err, context.Canceled) {
			t.Errorf("%T: got %v, want context.Canceled", q, err)
		}
	}
}

// TestTypedErrorsEndToEnd: the sentinels surface through every layer.
func TestTypedErrorsEndToEnd(t *testing.T) {
	db := genDB(t)

	if _, err := db.Score(db.NumSeries()+5, 0, 1); !errors.Is(err, ErrUnknownSeries) {
		t.Errorf("DB.Score: got %v, want ErrUnknownSeries", err)
	}

	exactIx, err := db.BuildIndex(Options{Method: MethodExact2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exactIx.Score(-1, 0, 1); !errors.Is(err, ErrUnknownSeries) {
		t.Errorf("Index.Score: got %v, want ErrUnknownSeries", err)
	}
	if _, err := exactIx.Run(context.Background(), SumQuery(3, 10, 5)); !errors.Is(err, ErrBadInterval) {
		t.Errorf("inverted interval: got %v, want ErrBadInterval", err)
	}
	p, err := NewPlanner(db, exactIx)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Append(db.NumSeries(), db.End()+1, 0); !errors.Is(err, ErrUnknownSeries) {
		t.Errorf("Planner.Append: got %v, want ErrUnknownSeries", err)
	}

	apxIx, err := db.BuildIndex(Options{Method: MethodAppx2, TargetR: 60, KMax: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apxIx.Run(context.Background(), SumQuery(50, db.Start(), db.End())); !errors.Is(err, ErrKTooLarge) {
		t.Errorf("k>kmax: got %v, want ErrKTooLarge", err)
	}

	// The Score footgun: objects outside the materialized lists are a
	// typed error, not a silent 0. With kmax=5 over 40 objects the
	// bottom-ranked object over the full domain cannot be materialized
	// everywhere; find one unmaterialized id.
	sawNotMaterialized := false
	for id := 0; id < db.NumSeries(); id++ {
		_, err := apxIx.Score(id, db.Start(), db.End())
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrNotMaterialized) {
			t.Fatalf("Score(%d): got %v, want ErrNotMaterialized", id, err)
		}
		sawNotMaterialized = true
		break
	}
	if !sawNotMaterialized {
		t.Error("no object reported ErrNotMaterialized despite kmax << m")
	}
}

// TestSnapshotIsolated: Snapshot returns a deep copy that later
// appends do not mutate, unlike the deprecated Dataset accessor.
func TestSnapshotIsolated(t *testing.T) {
	db := genDB(t)
	snap := db.Snapshot()
	before := snap.NumSegments()
	if before != db.NumSegments() {
		t.Fatalf("snapshot has %d segments, db has %d", before, db.NumSegments())
	}
	if err := db.Append(0, db.End()+1, 42); err != nil {
		t.Fatal(err)
	}
	if snap.NumSegments() != before {
		t.Error("append leaked into the snapshot")
	}
	if db.NumSegments() != before+1 {
		t.Errorf("db has %d segments, want %d", db.NumSegments(), before+1)
	}
}
