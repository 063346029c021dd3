package temporalrank

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"temporalrank/internal/gen"
)

func smallDB(t *testing.T) *DB {
	t.Helper()
	db, err := NewDB([]SeriesInput{
		{Times: []float64{0, 1, 2, 3}, Values: []float64{3, 5, 4, 2}},
		{Times: []float64{0, 1, 2, 3}, Values: []float64{6, 1, 2, 8}},
		{Times: []float64{0.5, 1.5, 2.5}, Values: []float64{10, 10, 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// mustRun answers q through qr, failing the test on error.
func mustRun(t *testing.T, qr Querier, q Query) []Result {
	t.Helper()
	ans, err := qr.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return ans.Results
}

// runResults answers q through qr, returning the ranked results and
// the error for the caller to check.
func runResults(qr Querier, q Query) ([]Result, error) {
	ans, err := qr.Run(context.Background(), q)
	return ans.Results, err
}

func TestNewDBValidation(t *testing.T) {
	if _, err := NewDB(nil); err == nil {
		t.Error("empty DB accepted")
	}
	if _, err := NewDB([]SeriesInput{{Times: []float64{0}, Values: []float64{1}}}); err == nil {
		t.Error("single-point series accepted")
	}
	if _, err := NewDB([]SeriesInput{{Times: []float64{1, 0}, Values: []float64{1, 1}}}); err == nil {
		t.Error("unsorted times accepted")
	}
}

func TestDBAccessors(t *testing.T) {
	db := smallDB(t)
	if db.NumSeries() != 3 {
		t.Errorf("m = %d", db.NumSeries())
	}
	if db.NumSegments() != 3+3+2 {
		t.Errorf("N = %d", db.NumSegments())
	}
	if db.Start() != 0 || db.End() != 3 {
		t.Errorf("domain [%g,%g]", db.Start(), db.End())
	}
}

func TestDBScore(t *testing.T) {
	db := smallDB(t)
	// Object 2 is constant 10 on [0.5,2.5]: σ(1,2) = 10.
	got, err := db.Score(2, 1, 2)
	if err != nil || math.Abs(got-10) > 1e-12 {
		t.Errorf("Score = (%g, %v), want 10", got, err)
	}
	if _, err := db.Score(9, 0, 1); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestDBTopKReference(t *testing.T) {
	db := smallDB(t)
	res := mustRun(t, db, SumQuery(2, 1, 2))
	if len(res) != 2 {
		t.Fatalf("len = %d", len(res))
	}
	if res[0].ID != 2 {
		t.Errorf("top = %d, want 2 (the constant-10 object)", res[0].ID)
	}
}

func TestBuildIndexDefaultsToExact3(t *testing.T) {
	db := smallDB(t)
	idx, err := db.BuildIndex(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Method() != MethodExact3 {
		t.Errorf("default method = %s", idx.Method())
	}
}

func TestEveryMethodThroughPublicAPI(t *testing.T) {
	ds, err := gen.Temp(gen.TempConfig{M: 25, Navg: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDBFromDataset(ds)
	t1 := db.Start() + (db.End()-db.Start())*0.2
	t2 := db.Start() + (db.End()-db.Start())*0.7
	want := mustRun(t, db, SumQuery(5, t1, t2))
	for _, method := range Methods() {
		idx, err := db.BuildIndex(Options{Method: method, TargetR: 40, KMax: 10})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		got, err := runResults(idx, SumQuery(5, t1, t2))
		if err != nil {
			t.Fatalf("%s query: %v", method, err)
		}
		if len(got) != 5 {
			t.Fatalf("%s returned %d items", method, len(got))
		}
		// Exact methods must agree with the reference exactly.
		switch method {
		case MethodExact1, MethodExact2, MethodExact3:
			for j := range got {
				if got[j].ID != want[j].ID {
					t.Errorf("%s rank %d: ID %d, want %d", method, j, got[j].ID, want[j].ID)
				}
			}
		}
		st := idx.Stats()
		if st.Pages <= 0 || st.Bytes <= 0 || st.MethodName != string(method) {
			t.Errorf("%s stats incomplete: %+v", method, st)
		}
	}
}

// TestIndexAppendConsistency: an append through the planner leaves
// the index and its DB untouched, yet the planner's Score sees the new
// mass at once and keeps seeing it once a compaction has rebuilt the
// index over the grown data.
func TestIndexAppendConsistency(t *testing.T) {
	db := smallDB(t)
	ref := smallDB(t)
	idx, err := db.BuildIndex(Options{Method: MethodExact2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(db, idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Append(0, 5, 100); err != nil {
		t.Fatal(err)
	}
	if err := ref.Append(0, 5, 100); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Score(0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"memtable", "compacted"} {
		got, err := p.Score(0, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 || got <= 0 {
			t.Errorf("%s: planner %g vs reference %g", stage, got, want)
		}
		if err := p.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if fromIdx, err := idx.Score(0, 3, 5); err != nil || fromIdx != 0 {
		t.Errorf("the built index changed: Score = %g, %v", fromIdx, err)
	}
	if err := p.Append(99, 10, 1); err == nil {
		t.Error("unknown id append accepted")
	}
}

func TestOnDiskIndex(t *testing.T) {
	db := smallDB(t)
	path := filepath.Join(t.TempDir(), "index.bin")
	idx, err := db.BuildIndex(Options{Method: MethodExact3, OnDiskPath: path})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runResults(idx, SumQuery(1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 2 {
		t.Errorf("on-disk top = %d", res[0].ID)
	}
}

func TestStatsAndReset(t *testing.T) {
	db := smallDB(t)
	idx, err := db.BuildIndex(Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx.ResetStats()
	if _, err := runResults(idx, SumQuery(1, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if idx.Stats().DeviceIOs == 0 {
		t.Error("no IOs recorded for a query")
	}
}

func TestApproxQualityThroughPublicAPI(t *testing.T) {
	ds, err := gen.Temp(gen.TempConfig{M: 40, Navg: 50, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDBFromDataset(ds)
	idx, err := db.BuildIndex(Options{Method: MethodAppx1, TargetR: 100, KMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	hits, total := 0, 0
	for q := 0; q < 20; q++ {
		span := db.End() - db.Start()
		t1 := db.Start() + rng.Float64()*span*0.6
		t2 := t1 + span*0.2
		got, err := runResults(idx, SumQuery(10, t1, t2))
		if err != nil {
			t.Fatal(err)
		}
		want := mustRun(t, db, SumQuery(10, t1, t2))
		set := map[int]bool{}
		for _, w := range want {
			set[w.ID] = true
		}
		for _, g := range got {
			total++
			if set[g.ID] {
				hits++
			}
		}
	}
	if pr := float64(hits) / float64(total); pr < 0.8 {
		t.Errorf("APPX1 precision over Temp = %g, want >= 0.8", pr)
	}
}

// TestBuildIndexesParallel builds all eight methods over one dataset
// and cross-checks one query per index against the reference. (It once
// also set a per-series build worker pool; the packed EXACT2 build that
// replaced the pool is a single pass.)
func TestBuildIndexesParallel(t *testing.T) {
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 60, Navg: 40, Seed: 7, Span: 100})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDBFromDataset(ds)
	t1 := db.Start() + (db.End()-db.Start())*0.3
	t2 := db.Start() + (db.End()-db.Start())*0.7
	q := SumQuery(5, t1, t2)
	want := mustRun(t, db, q)
	for _, m := range Methods() {
		ix, err := db.BuildIndex(Options{Method: m, TargetR: 80, KMax: 50})
		if err != nil {
			t.Fatalf("build %s: %v", m, err)
		}
		got := mustRun(t, ix, q)
		if len(got) != len(want) {
			t.Fatalf("%s: got %d results, want %d", m, len(got), len(want))
		}
		// Exact methods must match the reference exactly.
		if !m.IsApprox() && !sameIDs(got, want) {
			t.Fatalf("%s: got %v want %v", m, got, want)
		}
	}
}
