package temporalrank

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func sampleObjects(rng *rand.Rand, m, n int) [][]Sample {
	objects := make([][]Sample, m)
	for i := range objects {
		samples := make([]Sample, n)
		t := 0.0
		for j := 0; j < n; j++ {
			samples[j] = Sample{T: t, V: 50 + 30*math.Sin(t/7+float64(i)) + rng.NormFloat64()*2}
			t += 0.5 + rng.Float64()
		}
		objects[i] = samples
	}
	return objects
}

func TestNewDBFromSamplesConnect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	objects := sampleObjects(rng, 5, 50)
	db, err := NewDBFromSamples(objects, SegmentConnect, 0)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSeries() != 5 {
		t.Errorf("m = %d", db.NumSeries())
	}
	// Connect keeps every sample: 49 segments per object.
	if db.NumSegments() != 5*49 {
		t.Errorf("N = %d, want 245", db.NumSegments())
	}
}

func TestNewDBFromSamplesSegmented(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	objects := sampleObjects(rng, 5, 200)
	full, err := NewDBFromSamples(objects, SegmentConnect, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []SegmentationMethod{SegmentSlidingWindow, SegmentBottomUp} {
		const budget = 5.0
		db, err := NewDBFromSamples(objects, method, budget)
		if err != nil {
			t.Fatal(err)
		}
		if db.NumSegments() >= full.NumSegments() {
			t.Errorf("method %d: segmentation did not compress (%d vs %d)",
				method, db.NumSegments(), full.NumSegments())
		}
		// Aggregates perturbed by at most δ·(t2−t1).
		t1 := db.Start() + (db.End()-db.Start())*0.2
		t2 := db.Start() + (db.End()-db.Start())*0.8
		for id := 0; id < db.NumSeries(); id++ {
			a, _ := full.Score(id, t1, t2)
			b, _ := db.Score(id, t1, t2)
			if d := math.Abs(a - b); d > budget*(t2-t1) {
				t.Errorf("method %d object %d: drift %g > %g", method, id, d, budget*(t2-t1))
			}
		}
	}
}

// TestNewDBFromSamplesBoundAllMethods sweeps all three segmentation
// methods over many random query intervals, asserting the L∞ budget
// bound on aggregates against SegmentConnect ground truth: a PLA with
// L∞ error δ perturbs any σ_i(t1,t2) by at most δ·(t2−t1). For
// SegmentConnect itself the drift must be exactly zero.
func TestNewDBFromSamplesBoundAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	objects := sampleObjects(rng, 8, 300)
	full, err := NewDBFromSamples(objects, SegmentConnect, 0)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 3.0
	for _, method := range []SegmentationMethod{SegmentConnect, SegmentSlidingWindow, SegmentBottomUp} {
		db, err := NewDBFromSamples(objects, method, budget)
		if err != nil {
			t.Fatalf("method %d: %v", method, err)
		}
		if db.NumSeries() != full.NumSeries() {
			t.Fatalf("method %d: m=%d, want %d", method, db.NumSeries(), full.NumSeries())
		}
		maxDrift := budget
		if method == SegmentConnect {
			maxDrift = 0
		}
		span := full.End() - full.Start()
		for trial := 0; trial < 30; trial++ {
			t1 := full.Start() + rng.Float64()*span*0.9
			t2 := t1 + rng.Float64()*(full.End()-t1)
			bound := maxDrift*(t2-t1) + 1e-9
			for id := 0; id < db.NumSeries(); id++ {
				want, err := full.Score(id, t1, t2)
				if err != nil {
					t.Fatal(err)
				}
				got, err := db.Score(id, t1, t2)
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(want - got); d > bound {
					t.Fatalf("method %d object %d [%g,%g]: drift %g > δ·(t2−t1) = %g",
						method, id, t1, t2, d, bound)
				}
			}
		}
		// The drift bound also caps how far top-k scores can move: the
		// top-1 aggregate under segmentation stays within the bound of
		// the true top-1 aggregate.
		refTop := mustRun(t, full, SumQuery(1, full.Start(), full.End()))
		segTop := mustRun(t, db, SumQuery(1, full.Start(), full.End()))
		if d := math.Abs(refTop[0].Score - segTop[0].Score); d > maxDrift*span+1e-9 {
			t.Fatalf("method %d: top-1 score drift %g > %g", method, d, maxDrift*span)
		}
	}
}

func TestNewDBFromSamplesErrors(t *testing.T) {
	if _, err := NewDBFromSamples(nil, SegmentConnect, 0); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := NewDBFromSamples([][]Sample{{{T: 0, V: 1}}}, SegmentConnect, 0); err == nil {
		t.Error("single-sample object accepted")
	}
	objects := [][]Sample{{{T: 0, V: 1}, {T: 1, V: 2}}}
	if _, err := NewDBFromSamples(objects, SegmentationMethod(99), 0); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestTopKAvg(t *testing.T) {
	db := smallDB(t)
	idx, err := db.BuildIndex(Options{Method: MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	sums, err := runResults(idx, SumQuery(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	avgs, err := runResults(idx, AvgQuery(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sums {
		if avgs[i].ID != sums[i].ID {
			t.Errorf("rank %d: avg ranking differs from sum ranking", i)
		}
		if !floatsClose(avgs[i].Score, sums[i].Score/1.0) {
			t.Errorf("rank %d: avg score %g, want %g", i, avgs[i].Score, sums[i].Score)
		}
	}
	// Wider interval: avg = sum / width.
	sums, _ = runResults(idx, SumQuery(1, 0, 3))
	avgs, _ = runResults(idx, AvgQuery(1, 0, 3))
	if !floatsClose(avgs[0].Score, sums[0].Score/3) {
		t.Errorf("avg = %g, want %g", avgs[0].Score, sums[0].Score/3)
	}
	if _, err := runResults(idx, AvgQuery(1, 2, 2)); err == nil {
		t.Error("zero-width avg accepted")
	}
}

func floatsClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestInstantTopK(t *testing.T) {
	db := smallDB(t)
	// At t=1: object 0 scores 5, object 1 scores 1, object 2 scores 10.
	want := mustRun(t, db, InstantQuery(2, 1))
	if want[0].ID != 2 || want[1].ID != 0 {
		t.Fatalf("reference instant ranking wrong: %v", want)
	}
	// EXACT3 answers natively via a stab.
	e3, err := db.BuildIndex(Options{Method: MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runResults(e3, InstantQuery(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].ID != want[i].ID || !floatsClose(got[i].Score, want[i].Score) {
			t.Errorf("rank %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	// Other methods fall back to the DB path.
	e1, err := db.BuildIndex(Options{Method: MethodExact1})
	if err != nil {
		t.Fatal(err)
	}
	got, err = runResults(e1, InstantQuery(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != 2 {
		t.Errorf("fallback instant: %v", got)
	}
}

func TestInstantTopKAgainstDenseScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	objects := sampleObjects(rng, 20, 60)
	db, err := NewDBFromSamples(objects, SegmentConnect, 0)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.BuildIndex(Options{Method: MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		at := db.Start() + rng.Float64()*(db.End()-db.Start())
		got, err := runResults(idx, InstantQuery(5, at))
		if err != nil {
			t.Fatal(err)
		}
		want := mustRun(t, db, InstantQuery(5, at))
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("t=%g rank %d: %d vs %d", at, i, got[i].ID, want[i].ID)
			}
		}
	}
}

// TestSampledDBUnderCachedPlanner: a DB built from raw samples serves
// through a result-cached planner like any other. The planner's cache
// validates entries against the planner's own append journal, never
// against state the DB constructor had to set up.
func TestSampledDBUnderCachedPlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db, err := NewDBFromSamples(sampleObjects(rng, 6, 40), SegmentConnect, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(db)
	if err != nil {
		t.Fatal(err)
	}
	p.EnableResultCache(8)
	q := SumQuery(3, db.Start(), db.End())
	for i := 0; i < 2; i++ {
		ans, err := p.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(ans.Results, mustRun(t, db, q)) {
			t.Fatalf("run %d disagrees with the reference: %v", i, ans.Results)
		}
	}
	if st, _ := p.CacheStats(); st.Hits != 1 {
		t.Fatalf("cache stats %+v, want the repeat served as a hit", st)
	}
}
