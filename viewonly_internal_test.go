package temporalrank

import (
	"context"
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/core"
	"temporalrank/internal/gen"
)

// viewOnlyIndex builds method over db on a view-only device, so any
// copy-based page read while the index answers fails the query.
func viewOnlyIndex(t *testing.T, db *DB, method Method) *Index {
	t.Helper()
	m, err := core.Build(core.MethodName(method), db.ds, core.Config{
		NewDevice: func(bs int) (blockio.Device, error) { return blockio.NewViewOnlyDevice(bs), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Index{m: m, db: db, opts: Options{Method: method}}
}

func viewOnlyDB(t *testing.T, m int, seed int64) *DB {
	t.Helper()
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: m, Navg: 20, Seed: seed, Span: 400})
	if err != nil {
		t.Fatal(err)
	}
	return NewDBFromDataset(ds)
}

// viewOnlyQueries spans [start, end]: the whole span and a mid-span
// window, as sums (exact and tolerant), an average and an instant.
func viewOnlyQueries(start, end float64) []Query {
	mid, span := (start+end)/2, end-start
	tolerant := SumQuery(5, start+span/4, end-span/4)
	tolerant.MaxEpsilon = 1
	return []Query{
		SumQuery(5, start, end),
		SumQuery(5, start+span/4, end-span/4),
		tolerant,
		AvgQuery(5, start+span/3, end),
		InstantQuery(5, mid),
	}
}

// runViewOnly runs qs through qr and checks each answer came from
// method's index, unless Plan sends the query to the scan: an instant
// on any index but EXACT3, an exact query on an approximate index.
func runViewOnly(t *testing.T, what string, qr Querier, method Method, qs []Query) {
	t.Helper()
	for _, q := range qs {
		ans, err := qr.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s %s %+v: %v", what, method, q, err)
		}
		want := method
		if q.Agg == AggInstant && method != MethodExact3 || method.IsApprox() && q.MaxEpsilon == 0 {
			want = MethodReference
		}
		if ans.Method != want {
			t.Fatalf("%s %s %+v: answered by %s", what, method, q, ans.Method)
		}
	}
}

// TestQueryPathsViewPages runs the served query paths over indexes on
// view-only devices: Planner.Run without a result cache, Planner.Run
// merging a non-empty memtable, and Cluster.Run's scatter and merge.
// A copy-based page read anywhere below them fails the query.
func TestQueryPathsViewPages(t *testing.T) {
	for _, method := range Methods() {
		db := viewOnlyDB(t, 30, 5)
		p, err := NewPlanner(db, viewOnlyIndex(t, db, method))
		if err != nil {
			t.Fatal(err)
		}
		qs := viewOnlyQueries(db.Start(), db.End())
		runViewOnly(t, "planner", p, method, qs)

		if err := p.EnableMemtable(MemtableOptions{DisableAutoCompact: true}); err != nil {
			t.Fatal(err)
		}
		end := db.End()
		for id := 0; id < 4; id++ {
			if err := p.Append(id, end+1, 50); err != nil {
				t.Fatal(err)
			}
		}
		runViewOnly(t, "merged planner", p, method, viewOnlyQueries(db.Start(), end+1))
	}

	// Two shards: global ids 0-19 on shard 0, 20-39 on shard 1.
	locals := make([]*localShard, 2)
	for i := range locals {
		db := viewOnlyDB(t, 20, int64(7+i))
		p, err := NewPlanner(db, viewOnlyIndex(t, db, MethodExact3), viewOnlyIndex(t, db, MethodAppx2P))
		if err != nil {
			t.Fatal(err)
		}
		sm := &shardManifest{Shard: i, NumShards: 2, NumSeries: 40}
		for id := 0; id < 20; id++ {
			sm.Global = append(sm.Global, 20*i+id)
		}
		if locals[i], err = newLocalShard(p, sm, nil); err != nil {
			t.Fatal(err)
		}
	}
	c, err := assembleCluster(locals, 40, ClusterOptions{}, ErrBadConfig)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range viewOnlyQueries(c.Start(), c.End()) {
		if _, err := c.Run(context.Background(), q); err != nil {
			t.Fatalf("cluster %+v: %v", q, err)
		}
	}
}
