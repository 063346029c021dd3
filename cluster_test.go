package temporalrank_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"temporalrank"
	"temporalrank/internal/gen"
)

// clusterInputs converts a deterministic random-walk dataset into the
// SeriesInput form shared by NewDB and NewCluster.
func clusterInputs(t *testing.T, m, navg int, seed int64) []temporalrank.SeriesInput {
	t.Helper()
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: m, Navg: navg, Seed: seed, Span: 300})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]temporalrank.SeriesInput, ds.NumSeries())
	for i, s := range ds.AllSeries() {
		nv := s.NumSegments() + 1
		in := temporalrank.SeriesInput{Times: make([]float64, nv), Values: make([]float64, nv)}
		for j := 0; j < nv; j++ {
			in.Times[j] = s.VertexTime(j)
			in.Values[j] = s.VertexValue(j)
		}
		inputs[i] = in
	}
	return inputs
}

func sameResults(t *testing.T, label string, got, want []temporalrank.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for j := range want {
		if got[j].ID != want[j].ID || got[j].Score != want[j].Score {
			t.Fatalf("%s rank %d: got (%d, %g), want (%d, %g)",
				label, j, got[j].ID, got[j].Score, want[j].ID, want[j].Score)
		}
	}
}

// sameRanking is sameResults with a relative score tolerance, for
// index-backed answers whose prefix-sum evaluation differs from the
// brute-force reference by float rounding (last-ulp noise).
func sameRanking(t *testing.T, label string, got, want []temporalrank.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for j := range want {
		diff := got[j].Score - want[j].Score
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if s := want[j].Score; s > 1 || s < -1 {
			if s < 0 {
				s = -s
			}
			scale = s
		}
		if got[j].ID != want[j].ID || diff > 1e-9*scale {
			t.Fatalf("%s rank %d: got (%d, %g), want (%d, %g)",
				label, j, got[j].ID, got[j].Score, want[j].ID, want[j].Score)
		}
	}
}

// TestClusterEquivalence is the randomized acceptance suite: for shard
// counts {1, 2, 8} and all three aggregates, a Cluster over partitioned
// data must answer exactly like a single DB over all of it — same IDs,
// same scores, same tie order.
func TestClusterEquivalence(t *testing.T) {
	inputs := clusterInputs(t, 60, 30, 11)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	span := db.End() - db.Start()
	for _, shards := range []int{1, 2, 8} {
		c, err := temporalrank.NewCluster(inputs, temporalrank.ClusterOptions{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if c.NumSeries() != db.NumSeries() || c.NumSegments() != db.NumSegments() {
			t.Fatalf("shards=%d: cluster shape (%d, %d) != db (%d, %d)",
				shards, c.NumSeries(), c.NumSegments(), db.NumSeries(), db.NumSegments())
		}
		rng := rand.New(rand.NewSource(int64(shards)*100 + 7))
		for trial := 0; trial < 20; trial++ {
			t1 := db.Start() + rng.Float64()*span*0.8
			t2 := t1 + rng.Float64()*span*0.2
			k := 1 + rng.Intn(12)
			queries := []temporalrank.Query{
				temporalrank.SumQuery(k, t1, t2),
				temporalrank.AvgQuery(k, t1, t2),
				temporalrank.InstantQuery(k, t1),
			}
			for _, q := range queries {
				want, err := db.Run(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Run(ctx, q)
				if err != nil {
					t.Fatalf("shards=%d agg=%s: %v", shards, q.Agg, err)
				}
				sameResults(t, string(q.Agg), got.Results, want.Results)
				if !got.Exact || got.Epsilon != 0 {
					t.Fatalf("brute-force shards must answer exactly: %+v", got)
				}
				if got.Method != temporalrank.MethodReference {
					t.Fatalf("uniform shards reported method %q", got.Method)
				}
			}
		}
	}
}

// TestClusterIndexedEquivalence repeats the equivalence check with an
// exact index on every shard, so the scatter path exercises the planner
// and real device IO.
func TestClusterIndexedEquivalence(t *testing.T) {
	inputs := clusterInputs(t, 50, 25, 3)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	span := db.End() - db.Start()
	for _, shards := range []int{1, 2, 8} {
		c, err := temporalrank.NewCluster(inputs, temporalrank.ClusterOptions{
			Shards:  shards,
			Indexes: []temporalrank.Options{{Method: temporalrank.MethodExact3}},
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(shards)))
		for trial := 0; trial < 15; trial++ {
			t1 := db.Start() + rng.Float64()*span*0.7
			t2 := t1 + rng.Float64()*span*0.3
			k := 1 + rng.Intn(10)
			want, err := db.Run(ctx, temporalrank.SumQuery(k, t1, t2))
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Run(ctx, temporalrank.SumQuery(k, t1, t2))
			if err != nil {
				t.Fatal(err)
			}
			sameRanking(t, "indexed sum", got.Results, want.Results)
			if got.Method != temporalrank.MethodExact3 {
				t.Fatalf("uniform EXACT3 shards reported %q", got.Method)
			}
			if !got.Exact {
				t.Fatalf("exact shards produced approximate answer: %+v", got)
			}
			if got.IOs == 0 {
				t.Fatal("indexed scatter reported zero IOs")
			}
		}
	}
}

// TestClusterTieBreak: identical constant series force every score
// equal, so the merged ranking must be ascending global IDs for any
// shard count — cross-shard determinism, the regression the
// deterministic merge exists for.
func TestClusterTieBreak(t *testing.T) {
	const m = 17
	inputs := make([]temporalrank.SeriesInput, m)
	for i := range inputs {
		inputs[i] = temporalrank.SeriesInput{Times: []float64{0, 10}, Values: []float64{2, 2}}
	}
	ctx := context.Background()
	for _, shards := range []int{1, 2, 8} {
		c, err := temporalrank.NewCluster(inputs, temporalrank.ClusterOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		ans, err := c.Run(ctx, temporalrank.SumQuery(5, 1, 9))
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Results) != 5 {
			t.Fatalf("shards=%d: %d results", shards, len(ans.Results))
		}
		for j, r := range ans.Results {
			if r.ID != j {
				t.Fatalf("shards=%d rank %d: ID %d, want %d (ascending-ID tie order)", shards, j, r.ID, j)
			}
		}
	}
}

// TestClusterApproxMetadata checks the merged Answer metadata over
// approximate shards: ε is the max shard ε, Exact is false, and a
// uniform method is preserved.
func TestClusterApproxMetadata(t *testing.T) {
	inputs := clusterInputs(t, 40, 25, 9)
	c, err := temporalrank.NewCluster(inputs, temporalrank.ClusterOptions{
		Shards:  4,
		Indexes: []temporalrank.Options{{Method: temporalrank.MethodAppx2, TargetR: 40, KMax: 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var maxEps float64
	for _, p := range c.Planners() {
		if p == nil {
			continue
		}
		for _, ix := range p.Indexes() {
			if e := ix.Epsilon(); e > maxEps {
				maxEps = e
			}
		}
	}
	if maxEps <= 0 {
		t.Fatal("approximate shards built with eps 0")
	}
	ans, err := c.Run(context.Background(), temporalrank.Query{
		K: 5, T1: c.Start(), T2: c.End(), MaxEpsilon: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Exact {
		t.Fatal("approximate shards produced Exact answer")
	}
	if ans.Epsilon != maxEps {
		t.Fatalf("merged epsilon %g, want max shard epsilon %g", ans.Epsilon, maxEps)
	}
	if ans.Method != temporalrank.MethodAppx2 {
		t.Fatalf("uniform APPX2 shards reported %q", ans.Method)
	}
}

// TestClusterCancellation: a cancelled context aborts the scatter with
// ctx.Err, both before it starts and mid-flight.
func TestClusterCancellation(t *testing.T) {
	inputs := clusterInputs(t, 64, 60, 5)
	c, err := temporalrank.NewCluster(inputs, temporalrank.ClusterOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx, temporalrank.SumQuery(3, c.Start(), c.End())); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Run: err = %v, want context.Canceled", err)
	}
	// Mid-scatter: fire many runs while cancelling concurrently; every
	// run must either succeed fully or fail with the context error —
	// never a partial merge.
	for trial := 0; trial < 20; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			cancel()
			close(done)
		}()
		ans, err := c.Run(ctx, temporalrank.SumQuery(5, c.Start(), c.End()))
		<-done
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d: err = %v, want context.Canceled", trial, err)
			}
			if len(ans.Results) != 0 {
				t.Fatalf("trial %d: failed Run returned partial results", trial)
			}
		} else if len(ans.Results) != 5 {
			t.Fatalf("trial %d: successful Run returned %d results", trial, len(ans.Results))
		}
	}
}

// TestClusterAppend drives the sharded ingest path, including the
// formerly-blocked multi-index shard, and re-checks equivalence after
// the appends.
func TestClusterAppend(t *testing.T) {
	inputs := clusterInputs(t, 30, 15, 21)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := temporalrank.NewCluster(inputs, temporalrank.ClusterOptions{
		Shards: 4,
		Indexes: []temporalrank.Options{
			{Method: temporalrank.MethodExact3},
			{Method: temporalrank.MethodAppx2, TargetR: 40, KMax: 20},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(77))
	tcur := db.End()
	for i := 0; i < 60; i++ {
		id := rng.Intn(db.NumSeries())
		tcur += 0.5
		v := rng.NormFloat64() * 10
		if err := c.Append(id, tcur, v); err != nil {
			t.Fatalf("cluster append %d: %v", i, err)
		}
		if err := db.Append(id, tcur, v); err != nil {
			t.Fatalf("db append %d: %v", i, err)
		}
	}
	// The cluster's domain is its compacted bases': drain the shards.
	for _, p := range c.Planners() {
		if p != nil {
			if err := p.Compact(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.End() != db.End() {
		t.Fatalf("cluster end %g != db end %g after appends", c.End(), db.End())
	}
	span := db.End() - db.Start()
	for trial := 0; trial < 20; trial++ {
		t1 := db.Start() + rng.Float64()*span*0.8
		t2 := t1 + rng.Float64()*span*0.2
		want, err := db.Run(ctx, temporalrank.SumQuery(5, t1, t2))
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Run(ctx, temporalrank.SumQuery(5, t1, t2))
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, "post-append", got.Results, want.Results)
	}
}

// TestClusterScoreAndRouting covers Score routing (exact and unknown
// IDs) and the shard layout invariants.
func TestClusterScoreAndRouting(t *testing.T) {
	inputs := clusterInputs(t, 25, 20, 31)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := temporalrank.NewCluster(inputs, temporalrank.ClusterOptions{
		Shards:  3,
		Indexes: []temporalrank.Options{{Method: temporalrank.MethodExact2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := db.Start(), db.End()
	for id := 0; id < db.NumSeries(); id++ {
		want, err := db.Score(id, t1, t2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Score(id, t1, t2)
		if err != nil {
			t.Fatalf("score %d: %v", id, err)
		}
		if got != want {
			t.Fatalf("score %d: got %g, want %g", id, got, want)
		}
	}
	if _, err := c.Score(-1, t1, t2); !errors.Is(err, temporalrank.ErrUnknownSeries) {
		t.Fatalf("negative id: %v", err)
	}
	if _, err := c.Score(db.NumSeries(), t1, t2); !errors.Is(err, temporalrank.ErrUnknownSeries) {
		t.Fatalf("out-of-range id: %v", err)
	}
	if err := c.Append(db.NumSeries()+5, 1e9, 0); !errors.Is(err, temporalrank.ErrUnknownSeries) {
		t.Fatalf("append out-of-range id: %v", err)
	}
	st := c.Stats()
	if st.Shards != 3 || st.Objects != 25 || st.Segments != db.NumSegments() {
		t.Fatalf("cluster stats %+v", st)
	}
	total := 0
	for _, sh := range st.PerShard {
		total += sh.Objects
	}
	if total != 25 {
		t.Fatalf("per-shard objects sum to %d, want 25", total)
	}
}

// TestClusterMoreShardsThanSeries: empty shards must be harmless.
func TestClusterMoreShardsThanSeries(t *testing.T) {
	inputs := clusterInputs(t, 3, 10, 41)
	c, err := temporalrank.NewCluster(inputs, temporalrank.ClusterOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := db.Run(ctx, temporalrank.SumQuery(3, db.Start(), db.End()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(ctx, temporalrank.SumQuery(3, c.Start(), c.End()))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "sparse cluster", got.Results, want.Results)

	// The checkpoint holds no file for an empty shard; restoring it with
	// a memtable must still give a cluster that queries and appends.
	dir := t.TempDir()
	if err := c.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	restored, err := temporalrank.OpenClusterSnapshot(dir, temporalrank.ClusterOptions{
		Memtable: &temporalrank.MemtableOptions{FlushSegments: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumShards() != 8 {
		t.Fatalf("restored %d shards, want 8", restored.NumShards())
	}
	got, err = restored.Run(ctx, temporalrank.SumQuery(3, db.Start(), db.End()))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "restored sparse cluster", got.Results, want.Results)
	if err := restored.Append(1, db.End()+1, 5); err != nil {
		t.Fatal(err)
	}
}

// TestPlannerAppendMultiIndex: the single-node half of the sharded
// ingest path — appends through Planner.Append must reach every index
// (exact and approximate) consistently: the compaction that drains them
// rebuilds each index over the same grown data.
func TestPlannerAppendMultiIndex(t *testing.T) {
	inputs := clusterInputs(t, 20, 15, 51)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact2})
	if err != nil {
		t.Fatal(err)
	}
	e3, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	apx, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodAppx2P, TargetR: 30, KMax: 15})
	if err != nil {
		t.Fatal(err)
	}
	p, err := temporalrank.NewPlanner(db, e2, e3, apx)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	tcur := db.End()
	for i := 0; i < 50; i++ {
		id := rng.Intn(db.NumSeries())
		tcur += 1
		v := rng.NormFloat64() * 5
		if err := p.Append(id, tcur, v); err != nil {
			t.Fatalf("planner append %d: %v", i, err)
		}
		if err := ref.Append(id, tcur, v); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := p.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	cur := p.DB()
	if cur.NumSegments() != ref.NumSegments() || cur.End() != ref.End() {
		t.Fatalf("compacted db shape (%d, %g) != ref (%d, %g)",
			cur.NumSegments(), cur.End(), ref.NumSegments(), ref.End())
	}
	// Every rebuilt exact index must answer the exact query correctly.
	t1 := ref.Start() + ref.Span()*0.3
	t2 := ref.Start() + ref.Span()*0.9
	want, err := ref.Run(ctx, temporalrank.SumQuery(5, t1, t2))
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range p.Indexes() {
		if ix.Method().IsApprox() {
			continue
		}
		got, err := ix.Run(ctx, temporalrank.SumQuery(5, t1, t2))
		if err != nil {
			t.Fatalf("%s: %v", ix.Method(), err)
		}
		sameRanking(t, string(ix.Method()), got.Results, want.Results)
	}
	// The frontiers advanced: the next append is accepted.
	if err := p.Append(0, tcur+1, 1); err != nil {
		t.Fatalf("append after batch: %v", err)
	}
	// An append behind the frontier fails atomically: nothing advances.
	st, _ := p.MemtableStats()
	if err := p.Append(0, tcur-100, 1); err == nil {
		t.Fatal("stale append should fail")
	}
	if after, _ := p.MemtableStats(); after.ActiveSegments != st.ActiveSegments {
		t.Fatal("failed append advanced the memtable")
	}
	if err := p.Append(1, tcur+2, 1); err != nil {
		t.Fatalf("append after failed append: %v", err)
	}
}

// TestNewClusterFromSamples covers the sharded segmentation ingest.
func TestNewClusterFromSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	objects := make([][]temporalrank.Sample, 12)
	for i := range objects {
		samples := make([]temporalrank.Sample, 80)
		v := rng.NormFloat64()
		for j := range samples {
			v += rng.NormFloat64()
			samples[j] = temporalrank.Sample{T: float64(j), V: v}
		}
		objects[i] = samples
	}
	db, err := temporalrank.NewDBFromSamples(objects, temporalrank.SegmentBottomUp, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := temporalrank.NewClusterFromSamples(objects, temporalrank.SegmentBottomUp, 0.5, temporalrank.ClusterOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSegments() != db.NumSegments() {
		t.Fatalf("cluster segments %d != db %d", c.NumSegments(), db.NumSegments())
	}
	ctx := context.Background()
	want, err := db.Run(ctx, temporalrank.SumQuery(4, db.Start(), db.End()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(ctx, temporalrank.SumQuery(4, c.Start(), c.End()))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "from samples", got.Results, want.Results)
}

// TestNewClusterFromDB: re-partitioning a DB must preserve answers.
func TestNewClusterFromDB(t *testing.T) {
	inputs := clusterInputs(t, 30, 20, 71)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := temporalrank.NewClusterFromDB(db, temporalrank.ClusterOptions{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := db.Run(ctx, temporalrank.SumQuery(6, db.Start(), db.End()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(ctx, temporalrank.SumQuery(6, c.Start(), c.End()))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "from db", got.Results, want.Results)
}

// TestClusterBadOptions covers construction validation.
func TestClusterBadOptions(t *testing.T) {
	inputs := clusterInputs(t, 4, 5, 81)
	if _, err := temporalrank.NewCluster(nil, temporalrank.ClusterOptions{}); err == nil {
		t.Fatal("no series should fail")
	}
	if _, err := temporalrank.NewCluster(inputs, temporalrank.ClusterOptions{Shards: -2}); err == nil {
		t.Fatal("negative shards should fail")
	}
}
