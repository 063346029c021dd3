package temporalrank_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"temporalrank"
	"temporalrank/internal/gen"
)

// TestAnswerIOsUnderConcurrency: Answer.IOs is the query's own page
// reads, so 64 goroutines running the same seeded queries at once each
// report exactly the IOs the query reports when it runs alone. It covers
// EXACT3 sum, average and instant queries, APPX2+ tolerant sums, the
// merged EXACT3 read over a non-empty memtable and a 2-shard cluster,
// all sharing one device per index. Run with -race (CI does).
func TestAnswerIOsUnderConcurrency(t *testing.T) {
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 300, Navg: 30, Seed: 21, Span: 500})
	if err != nil {
		t.Fatal(err)
	}
	db := temporalrank.NewDBFromDataset(ds)
	e3, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	a2p, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodAppx2P, TargetR: 60, KMax: 50})
	if err != nil {
		t.Fatal(err)
	}
	served, err := temporalrank.NewPlanner(db, e3, a2p)
	if err != nil {
		t.Fatal(err)
	}

	// A second planner over its own copy of the data, whose memtable
	// holds appends to every tenth series, answers sums by mergeExact3.
	mds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 300, Navg: 30, Seed: 21, Span: 500})
	if err != nil {
		t.Fatal(err)
	}
	mdb := temporalrank.NewDBFromDataset(mds)
	me3, err := mdb.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := temporalrank.NewPlanner(mdb, me3)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.EnableMemtable(temporalrank.MemtableOptions{DisableAutoCompact: true}); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < mdb.NumSeries(); id += 10 {
		if err := merged.Append(id, mdb.End()+float64(id+1), float64(id)); err != nil {
			t.Fatal(err)
		}
	}

	cluster, err := temporalrank.NewClusterFromDB(db, temporalrank.ClusterOptions{
		Shards: 2,
		Indexes: []temporalrank.Options{
			{Method: temporalrank.MethodExact3},
			{Method: temporalrank.MethodAppx2P, TargetR: 60, KMax: 50},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	type run struct {
		name string
		qr   temporalrank.Querier
		q    temporalrank.Query
		want uint64
	}
	var runs []run
	rng := rand.New(rand.NewSource(5))
	start, span := db.Start(), db.Span()
	for i := 0; i < 4; i++ {
		t1 := start + rng.Float64()*span/2
		t2 := t1 + (0.1+rng.Float64()*0.9)*span/2
		tolerant := temporalrank.SumQuery(10, t1, t2)
		tolerant.MaxEpsilon = 1
		runs = append(runs,
			run{name: "EXACT3 sum", qr: e3, q: temporalrank.SumQuery(10, t1, t2)},
			run{name: "EXACT3 avg", qr: e3, q: temporalrank.AvgQuery(10, t1, t2)},
			run{name: "EXACT3 instant", qr: e3, q: temporalrank.InstantQuery(10, t1)},
			run{name: "APPX2+ tolerant sum", qr: served, q: tolerant},
			run{name: "memtable merge", qr: merged, q: temporalrank.SumQuery(10, t1, mdb.End()+float64(i+1)*50)},
			run{name: "2-shard cluster sum", qr: cluster, q: temporalrank.SumQuery(10, t1, t2)},
			run{name: "2-shard cluster tolerant sum", qr: cluster, q: tolerant},
		)
	}
	ctx := context.Background()
	wantMethod := map[string]temporalrank.Method{
		"APPX2+ tolerant sum": temporalrank.MethodAppx2P,
		"memtable merge":      temporalrank.MethodExact3,
	}
	for i := range runs {
		r := &runs[i]
		ans, err := r.qr.Run(ctx, r.q)
		if err != nil {
			t.Fatalf("%s alone: %v", r.name, err)
		}
		if ans.IOs == 0 {
			t.Fatalf("%s alone reports no IOs", r.name)
		}
		if m, ok := wantMethod[r.name]; ok && ans.Method != m {
			t.Fatalf("%s was answered by %s, want %s", r.name, ans.Method, m)
		}
		r.want = ans.IOs
	}

	const goroutines = 64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts at a different query, so different
			// queries overlap on every device.
			for j := range runs {
				r := runs[(g+j)%len(runs)]
				ans, err := r.qr.Run(ctx, r.q)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", r.name, err)
					return
				}
				if ans.IOs != r.want {
					errs <- fmt.Errorf("%s over [%g, %g]: %d IOs among 64 goroutines, %d alone", r.name, r.q.T1, r.q.T2, ans.IOs, r.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
