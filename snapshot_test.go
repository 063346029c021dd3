package temporalrank_test

import (
	"context"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"temporalrank"
	"temporalrank/internal/blockio"
)

// snapshotQueries is the query mix every round-trip test replays: the
// three aggregates over a few intervals and ks, including boundary
// intervals.
func snapshotQueries(rng *rand.Rand, start, end float64, trials int) []temporalrank.Query {
	span := end - start
	qs := []temporalrank.Query{
		temporalrank.SumQuery(5, start, end),
		temporalrank.AvgQuery(3, start, end),
		temporalrank.InstantQuery(4, start+span/2),
	}
	for i := 0; i < trials; i++ {
		t1 := start + rng.Float64()*span*0.7
		t2 := t1 + rng.Float64()*span*0.3
		k := 1 + rng.Intn(8)
		qs = append(qs,
			temporalrank.SumQuery(k, t1, t2),
			temporalrank.AvgQuery(k, t1, t2),
			temporalrank.InstantQuery(k, t1),
		)
	}
	return qs
}

// requireSameAnswers runs every query against both queriers and
// requires bit-identical results — restored structures are raw page
// images of the originals, so even float rounding must agree.
func requireSameAnswers(t *testing.T, label string, qs []temporalrank.Query, want, got temporalrank.Querier) {
	t.Helper()
	ctx := context.Background()
	for _, q := range qs {
		w, err := want.Run(ctx, q)
		if err != nil {
			t.Fatalf("%s: original %s k=%d: %v", label, q.Agg, q.K, err)
		}
		g, err := got.Run(ctx, q)
		if err != nil {
			t.Fatalf("%s: restored %s k=%d: %v", label, q.Agg, q.K, err)
		}
		sameResults(t, label+"/"+string(q.Agg), g.Results, w.Results)
	}
}

// TestSnapshotRoundTripAllMethods builds one index per method over a
// randomized dataset, checkpoints the whole planner, restores it, and
// requires every method to answer every aggregate identically — then
// appends through both planners and checks again, before and after a
// compaction drains them, so the restored data versions, frontiers and
// build options are exercised too.
func TestSnapshotRoundTripAllMethods(t *testing.T) {
	inputs := clusterInputs(t, 30, 20, 42)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	var ixs []*temporalrank.Index
	for i, m := range temporalrank.Methods() {
		opts := temporalrank.Options{Method: m, BlockSize: 512, KMax: 16, TargetR: 24}
		if i%2 == 0 {
			opts.CacheBlocks = 32 // alternate raw devices and buffer pools
		}
		ix, err := db.BuildIndex(opts)
		if err != nil {
			t.Fatalf("build %s: %v", m, err)
		}
		ixs = append(ixs, ix)
	}
	p, err := temporalrank.NewPlanner(db, ixs...)
	if err != nil {
		t.Fatal(err)
	}
	p.EnableResultCache(64)

	path := filepath.Join(t.TempDir(), "all.trsnap")
	if err := p.Checkpoint(path); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	p2, err := temporalrank.OpenSnapshot(path)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}

	if got, want := p2.DB().DataVersion(), p.DB().DataVersion(); got != want {
		t.Fatalf("restored data version %d, want %d", got, want)
	}
	if _, ok := p2.CacheStats(); !ok {
		t.Fatal("restored planner lost its result cache")
	}
	ixs2 := p2.Indexes()
	if len(ixs2) != len(ixs) {
		t.Fatalf("restored %d indexes, want %d", len(ixs2), len(ixs))
	}

	rng := rand.New(rand.NewSource(1))
	qs := snapshotQueries(rng, db.Start(), db.End(), 6)
	for i := range ixs {
		if ixs2[i].Method() != ixs[i].Method() {
			t.Fatalf("index %d restored as %s, want %s", i, ixs2[i].Method(), ixs[i].Method())
		}
		requireSameAnswers(t, "index/"+string(ixs[i].Method()), qs, ixs[i], ixs2[i])
	}
	requireSameAnswers(t, "planner", qs, p, p2)

	// Append the same segments through both planners and drain them:
	// every frontier and every index's build options must have restored
	// correctly for the rebuilt generations to keep agreeing.
	tEnd := p.DB().End()
	for n := 0; n < 10; n++ {
		id := rng.Intn(db.NumSeries())
		tEnd += 0.5 + rng.Float64()
		v := rng.Float64()*10 - 5
		if err := p.Append(id, tEnd, v); err != nil {
			t.Fatalf("append original: %v", err)
		}
		if err := p2.Append(id, tEnd, v); err != nil {
			t.Fatalf("append restored: %v", err)
		}
	}
	if got, want := p2.DataVersion(), p.DataVersion(); got != want {
		t.Fatalf("restored planner at version %d after the appends, want %d", got, want)
	}
	qs2 := snapshotQueries(rng, db.Start(), tEnd, 4)
	requireSameAnswers(t, "post-append", qs2, p, p2)
	ctx := context.Background()
	if err := p.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p2.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	requireSameAnswers(t, "post-compaction", qs2, p, p2)
}

// TestSnapshotSecondGenerationSupersedes checkpoints, mutates, and
// checkpoints again to the same path: restore must see the second
// snapshot's data.
func TestSnapshotSecondGenerationSupersedes(t *testing.T) {
	inputs := clusterInputs(t, 10, 8, 3)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3, BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	p, err := temporalrank.NewPlanner(db, ix)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.trsnap")
	if err := p.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	if err := p.Append(0, db.End()+1, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	p2, err := temporalrank.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p2.DB().NumSegments(), p.DB().NumSegments(); got != want {
		t.Fatalf("restored %d segments, want %d (second generation)", got, want)
	}
	rng := rand.New(rand.NewSource(9))
	requireSameAnswers(t, "gen2", snapshotQueries(rng, db.Start(), db.End(), 4), p, p2)
}

// TestSnapshotRejectsGarbage checks the typed-error contract on things
// that are not snapshots, and that opening a missing path creates
// nothing.
func TestSnapshotRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.trsnap")
	if _, err := temporalrank.OpenSnapshot(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: got %v, want fs.ErrNotExist", err)
	}
	if _, err := os.Stat(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("OpenSnapshot of a missing path created it (stat: %v)", err)
	}
	garbage := make([]byte, 8*blockio.DefaultBlockSize)
	for i := range garbage {
		garbage[i] = byte(i*31 + i/blockio.DefaultBlockSize)
	}
	for name, raw := range map[string][]byte{"empty": nil, "garbage": garbage} {
		path := filepath.Join(dir, name+".trsnap")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := temporalrank.OpenSnapshot(path); !errors.Is(err, temporalrank.ErrBadSnapshot) {
			t.Fatalf("%s file: got %v, want ErrBadSnapshot", name, err)
		}
	}
	if _, err := temporalrank.OpenClusterSnapshot(t.TempDir(), temporalrank.ClusterOptions{}); !errors.Is(err, temporalrank.ErrBadSnapshot) {
		t.Fatalf("empty dir: got %v, want ErrBadSnapshot", err)
	}
}

// TestClusterSnapshotRoundTrip checkpoints a cluster to per-shard
// files and restores it, for 1 and 8 shards, checking equivalence
// before and after post-restore appends, plus a second generation.
func TestClusterSnapshotRoundTrip(t *testing.T) {
	inputs := clusterInputs(t, 40, 15, 11)
	indexes := []temporalrank.Options{
		{Method: temporalrank.MethodExact3, BlockSize: 512},
		{Method: temporalrank.MethodAppx2, BlockSize: 512, KMax: 16, TargetR: 16},
	}
	for _, shards := range []int{1, 8} {
		c, err := temporalrank.NewCluster(inputs, temporalrank.ClusterOptions{
			Shards: shards, Indexes: indexes, ResultCache: 32,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		dir := t.TempDir()
		if err := c.Checkpoint(dir); err != nil {
			t.Fatalf("shards=%d checkpoint: %v", shards, err)
		}
		c2, err := temporalrank.OpenClusterSnapshot(dir, temporalrank.ClusterOptions{ResultCache: 32})
		if err != nil {
			t.Fatalf("shards=%d restore: %v", shards, err)
		}
		if c2.NumShards() != c.NumShards() || c2.NumSeries() != c.NumSeries() || c2.NumSegments() != c.NumSegments() {
			t.Fatalf("shards=%d: restored shape (%d, %d, %d) != original (%d, %d, %d)",
				shards, c2.NumShards(), c2.NumSeries(), c2.NumSegments(),
				c.NumShards(), c.NumSeries(), c.NumSegments())
		}
		rng := rand.New(rand.NewSource(int64(shards)))
		qs := snapshotQueries(rng, c.Start(), c.End(), 5)
		requireSameAnswers(t, "cluster", qs, c, c2)

		tEnd := c.End()
		for n := 0; n < 8; n++ {
			id := rng.Intn(c.NumSeries())
			tEnd += 0.5 + rng.Float64()
			v := rng.Float64() * 4
			if err := c.Append(id, tEnd, v); err != nil {
				t.Fatalf("shards=%d append original: %v", shards, err)
			}
			if err := c2.Append(id, tEnd, v); err != nil {
				t.Fatalf("shards=%d append restored: %v", shards, err)
			}
		}
		requireSameAnswers(t, "cluster post-append", snapshotQueries(rng, c.Start(), tEnd, 3), c, c2)

		// Second generation over the same files.
		if err := c2.Checkpoint(dir); err != nil {
			t.Fatalf("shards=%d re-checkpoint: %v", shards, err)
		}
		c3, err := temporalrank.OpenClusterSnapshot(dir, temporalrank.ClusterOptions{})
		if err != nil {
			t.Fatalf("shards=%d re-restore: %v", shards, err)
		}
		requireSameAnswers(t, "cluster gen2", snapshotQueries(rng, c.Start(), c.End(), 3), c2, c3)
	}
}

// TestClusterSnapshotRejectsCorruption flips one byte in every shard
// file position that matters and requires a typed failure, never a
// wrong cluster.
func TestClusterSnapshotRejectsCorruption(t *testing.T) {
	inputs := clusterInputs(t, 12, 10, 5)
	c, err := temporalrank.NewCluster(inputs, temporalrank.ClusterOptions{
		Shards:  2,
		Indexes: []temporalrank.Options{{Method: temporalrank.MethodExact1, BlockSize: 256}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "shard-0000.trsnap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the first payload byte of the middle page: page 0 is the
	// header, and every later page is a stream page whose payload starts
	// after its 16-byte page header and is covered by its CRC.
	pages := len(raw) / blockio.DefaultBlockSize
	pos := max(pages/2, 1)*blockio.DefaultBlockSize + 16
	corrupted := append([]byte(nil), raw...)
	corrupted[pos] ^= 0x40
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := temporalrank.OpenClusterSnapshot(dir, temporalrank.ClusterOptions{}); !errors.Is(err, temporalrank.ErrBadSnapshot) {
		t.Fatalf("corrupt shard file: got %v, want ErrBadSnapshot", err)
	}
}
