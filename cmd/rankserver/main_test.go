package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"temporalrank"
	"temporalrank/internal/gen"
	"temporalrank/internal/tsdata"
	"temporalrank/internal/tsio"
)

// sumReference is the brute-force top-k(t1, t2, sum) answer.
func sumReference(t *testing.T, db *temporalrank.DB, k int, t1, t2 float64) []temporalrank.Result {
	t.Helper()
	ans, err := db.Run(context.Background(), temporalrank.SumQuery(k, t1, t2))
	if err != nil {
		t.Fatal(err)
	}
	return ans.Results
}

func testServer(t *testing.T, methods ...temporalrank.Method) (*server, *temporalrank.DB, *httptest.Server) {
	return testShardedServer(t, 1, methods...)
}

// testShardedServer builds a server over a cluster with the given shard
// count; shards=1 is the single-node configuration every pre-cluster
// test uses.
func testShardedServer(t *testing.T, shards int, methods ...temporalrank.Method) (*server, *temporalrank.DB, *httptest.Server) {
	t.Helper()
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 50, Navg: 40, Seed: 5, Span: 200})
	if err != nil {
		t.Fatal(err)
	}
	db := temporalrank.NewDBFromDataset(ds)
	opts := make([]temporalrank.Options, len(methods))
	for i, m := range methods {
		opts[i] = temporalrank.Options{Method: m, TargetR: 80, KMax: 50}
	}
	cluster, err := temporalrank.NewClusterFromDB(db, temporalrank.ClusterOptions{
		Shards:  shards,
		Indexes: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(cluster, 8, 30*time.Second)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, db, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestParallelTopKMatchesReference is the load-style acceptance test:
// many goroutines issue /query requests concurrently and every response
// must match the brute-force DB.TopK reference answer.
func TestParallelTopKMatchesReference(t *testing.T) {
	_, db, ts := testServer(t, temporalrank.MethodExact3)

	const (
		clients           = 10
		requestsPerClient = 30
	)
	span := db.End() - db.Start()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < requestsPerClient; i++ {
				t1 := db.Start() + rng.Float64()*span*0.8
				t2 := t1 + rng.Float64()*span*0.2
				var got queryResponse
				url := fmt.Sprintf("%s/query?agg=sum&k=5&t1=%g&t2=%g", ts.URL, t1, t2)
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				code := resp.StatusCode
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("decode: %w", err)
					return
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("status %d for %s", code, url)
					return
				}
				ref, err := db.Run(context.Background(), temporalrank.SumQuery(5, t1, t2))
				if err != nil {
					errs <- err
					return
				}
				want := ref.Results
				if len(got.Results) != len(want) {
					errs <- fmt.Errorf("got %d results, want %d", len(got.Results), len(want))
					return
				}
				for j := range want {
					if got.Results[j].ID != want[j].ID {
						errs <- fmt.Errorf("rank %d: got object %d, want %d", j, got.Results[j].ID, want[j].ID)
						return
					}
				}
			}
		}(int64(c + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var st statsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if st.Queries != clients*requestsPerClient {
		t.Fatalf("stats: got %d queries, want %d", st.Queries, clients*requestsPerClient)
	}
	if st.QueryErrors != 0 {
		t.Fatalf("stats: %d query errors", st.QueryErrors)
	}
}

// TestEndpoints exercises every route once, including appends racing
// queries on an approximate method.
func TestEndpoints(t *testing.T) {
	_, db, ts := testServer(t, temporalrank.MethodAppx2P)
	mid := (db.Start() + db.End()) / 2

	// The server's only index is approximate, so every query states a
	// tolerance (eps=1 admits any ε in (0,1)); without one the planner
	// falls back to the exact reference scan.
	var q queryResponse
	if code := getJSON(t, fmt.Sprintf("%s/query?agg=sum&eps=1&k=3&t1=%g&t2=%g", ts.URL, db.Start(), db.End()), &q); code != http.StatusOK {
		t.Fatalf("/query agg=sum status %d", code)
	}
	if len(q.Results) != 3 || q.Method != "APPX2+" {
		t.Fatalf("bad /query agg=sum response: %+v", q)
	}
	if code := getJSON(t, fmt.Sprintf("%s/query?agg=avg&eps=1&k=3&t1=%g&t2=%g", ts.URL, db.Start(), db.End()), &q); code != http.StatusOK {
		t.Fatalf("/query agg=avg status %d", code)
	}
	if code := getJSON(t, fmt.Sprintf("%s/query?agg=instant&eps=1&k=3&t=%g", ts.URL, mid), &q); code != http.StatusOK {
		t.Fatalf("/query agg=instant status %d", code)
	}

	// The per-aggregate routes are retired: /query is the only query
	// endpoint.
	for _, old := range []string{"/topk?k=3&t1=0&t2=1", "/avg?k=3&t1=0&t2=1", "/instant?k=3&t=0"} {
		resp, err := http.Get(ts.URL + old)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", old, resp.StatusCode)
		}
	}

	// Appends racing queries: writer posts /append while readers hit
	// /query (the server-side mirror of the -race regression test).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tcur := db.End()
		for i := 0; i < 20; i++ {
			tcur += 1
			body, _ := json.Marshal(appendRequest{ID: i % db.NumSeries(), T: tcur, V: float64(i)})
			resp, err := http.Post(ts.URL+"/append", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/append status %d", resp.StatusCode)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		var r queryResponse
		getJSON(t, fmt.Sprintf("%s/query?agg=sum&eps=1&k=3&t1=%g&t2=%g", ts.URL, db.Start(), mid), &r)
	}
	wg.Wait()

	// Error paths.
	resp, err := http.Get(ts.URL + "/query?agg=sum&k=3&t1=oops&t2=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad t1: status %d, want 400", resp.StatusCode)
	}
	// An inverted interval is now a typed ErrBadInterval, mapped to 400
	// (it was a 422 before the unified query API).
	resp, err = http.Get(ts.URL + "/query?agg=sum&k=3&t1=5&t2=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted interval: status %d, want 400", resp.StatusCode)
	}

	// k guards: non-positive k rejected, huge k clamped to m (a DoS
	// guard — k sizes the top-k heap).
	resp, err = http.Get(ts.URL + "/query?agg=sum&k=0&t1=0&t2=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=0: status %d, want 400", resp.StatusCode)
	}
	var clamped queryResponse
	if code := getJSON(t, fmt.Sprintf("%s/query?agg=sum&eps=1&k=2000000000&t1=%g&t2=%g", ts.URL, db.Start(), mid), &clamped); code != http.StatusOK {
		t.Fatalf("huge k: status %d, want 200", code)
	}
	if len(clamped.Results) > db.NumSeries() {
		t.Fatalf("huge k: %d results for %d objects", len(clamped.Results), db.NumSeries())
	}

	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("/healthz: %d %v", code, health)
	}
}

// TestQueryEndpoint exercises the unified /query route over a
// two-index planner: eps routes to the approximate index, no eps (or
// eps=0) to the exact one, and exact answers match the reference.
func TestQueryEndpoint(t *testing.T) {
	_, db, ts := testServer(t, temporalrank.MethodExact3, temporalrank.MethodAppx2)
	t1, t2 := db.Start(), db.End()

	var exactResp queryResponse
	if code := getJSON(t, fmt.Sprintf("%s/query?k=5&t1=%g&t2=%g", ts.URL, t1, t2), &exactResp); code != http.StatusOK {
		t.Fatalf("/query status %d", code)
	}
	if !exactResp.Exact || temporalrank.Method(exactResp.Method).IsApprox() {
		t.Fatalf("exact query answered by %q (exact=%v)", exactResp.Method, exactResp.Exact)
	}
	want := sumReference(t, db, 5, t1, t2)
	for j := range want {
		if exactResp.Results[j].ID != want[j].ID {
			t.Fatalf("rank %d: got object %d, want %d", j, exactResp.Results[j].ID, want[j].ID)
		}
	}

	var apxResp queryResponse
	if code := getJSON(t, fmt.Sprintf("%s/query?k=5&t1=%g&t2=%g&eps=0.9", ts.URL, t1, t2), &apxResp); code != http.StatusOK {
		t.Fatalf("/query eps status %d", code)
	}
	if !temporalrank.Method(apxResp.Method).IsApprox() {
		t.Fatalf("tolerant query answered by exact %q, want approximate", apxResp.Method)
	}
	if apxResp.Exact || apxResp.Epsilon <= 0 {
		t.Fatalf("approximate answer misreported: %+v", apxResp)
	}

	// avg through /query: same ranking, rescaled scores.
	var avgResp queryResponse
	if code := getJSON(t, fmt.Sprintf("%s/query?agg=avg&k=5&t1=%g&t2=%g", ts.URL, t1, t2), &avgResp); code != http.StatusOK {
		t.Fatalf("/query agg=avg status %d", code)
	}
	if avgResp.Agg != "avg" || len(avgResp.Results) != 5 {
		t.Fatalf("bad avg response: %+v", avgResp)
	}

	// instant through /query.
	var instResp queryResponse
	mid := (t1 + t2) / 2
	if code := getJSON(t, fmt.Sprintf("%s/query?agg=instant&k=5&t=%g", ts.URL, mid), &instResp); code != http.StatusOK {
		t.Fatalf("/query agg=instant status %d", code)
	}
	if !instResp.Exact {
		t.Fatalf("instant answers are always exact: %+v", instResp)
	}

	// Unknown aggregate → 400.
	resp, err := http.Get(fmt.Sprintf("%s/query?agg=median&k=5&t1=%g&t2=%g", ts.URL, t1, t2))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("agg=median: status %d, want 400", resp.StatusCode)
	}
}

// TestScoreEndpoint covers /score on exact and approximate primaries,
// including the typed not-materialized and unknown-series failures.
func TestScoreEndpoint(t *testing.T) {
	_, db, ts := testServer(t, temporalrank.MethodExact2)
	t1, t2 := db.Start(), db.End()

	var sc scoreResponse
	if code := getJSON(t, fmt.Sprintf("%s/score?id=3&t1=%g&t2=%g", ts.URL, t1, t2), &sc); code != http.StatusOK {
		t.Fatalf("/score status %d", code)
	}
	wantScore, err := db.Score(3, t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Exact || sc.Score != wantScore {
		t.Fatalf("/score got %+v, want exact %g", sc, wantScore)
	}

	resp, err := http.Get(fmt.Sprintf("%s/score?id=99999&t1=%g&t2=%g", ts.URL, t1, t2))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown series: status %d, want 404", resp.StatusCode)
	}

	// Approximate primary: an object outside the materialized lists is
	// a 404, not a silent zero. KMax=5 over 50 objects guarantees most
	// ids are unmaterialized; scan until one answers 404.
	_, db2, ts2 := testServerKMax(t, temporalrank.MethodAppx2, 5)
	saw404 := false
	for id := 0; id < db2.NumSeries(); id++ {
		resp, err := http.Get(fmt.Sprintf("%s/score?id=%d&t1=%g&t2=%g", ts2.URL, id, db2.Start(), db2.End()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound:
			saw404 = true
		default:
			t.Fatalf("id %d: status %d", id, resp.StatusCode)
		}
		if saw404 {
			break
		}
	}
	if !saw404 {
		t.Fatal("no unmaterialized object answered 404")
	}
}

func testServerKMax(t *testing.T, method temporalrank.Method, kmax int) (*server, *temporalrank.DB, *httptest.Server) {
	t.Helper()
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 50, Navg: 40, Seed: 5, Span: 200})
	if err != nil {
		t.Fatal(err)
	}
	db := temporalrank.NewDBFromDataset(ds)
	cluster, err := temporalrank.NewClusterFromDB(db, temporalrank.ClusterOptions{
		Indexes: []temporalrank.Options{{Method: method, TargetR: 80, KMax: kmax}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(cluster, 4, 30*time.Second)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, db, ts
}

// TestAppendMultiIndex: appends on a multi-index server succeed —
// Planner.Append buffers them in the shard's memtable, which queries
// merge at once and compaction folds into every index alike. Both
// indexes must serve the appended data.
func TestAppendMultiIndex(t *testing.T) {
	srv, db, ts := testServer(t, temporalrank.MethodExact3, temporalrank.MethodAppx2)
	tend := db.End()
	for i := 0; i < 10; i++ {
		tend += 1
		body, _ := json.Marshal(appendRequest{ID: 0, T: tend, V: 5})
		resp, err := http.Post(ts.URL+"/append", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("multi-index append %d: status %d, want 200", i, resp.StatusCode)
		}
	}
	// The exact index must see the appended mass: query an interval
	// covering only the new segments.
	var q queryResponse
	if code := getJSON(t, fmt.Sprintf("%s/query?k=1&t1=%g&t2=%g", ts.URL, db.End(), tend), &q); code != http.StatusOK {
		t.Fatalf("/query status %d", code)
	}
	if len(q.Results) != 1 || q.Results[0].ID != 0 {
		t.Fatalf("post-append query: %+v, want object 0 on top", q)
	}
	// /stats reports the compacted bases' domain: it reaches the
	// appended frontier once the shards have drained their memtables.
	for _, p := range srv.cluster.Planners() {
		if err := p.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	var st statsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if st.DomainEnd != tend {
		t.Fatalf("domain end %g after appends, want %g", st.DomainEnd, tend)
	}
	// A stale append (t behind the frontier) still fails cleanly.
	body, _ := json.Marshal(appendRequest{ID: 0, T: tend - 50, V: 1})
	resp, err := http.Post(ts.URL+"/append", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("stale append accepted")
	}
}

// TestQueryNonFiniteScore: every append keeps its series' running
// integral finite, but a run whose integral climbs from -1.5e308 to
// +1.5e308 scores 3e308 over that window, which overflows to +Inf, and
// JSON cannot carry that. /query must then answer 500 with an error body, not 200 with an
// empty one.
func TestQueryNonFiniteScore(t *testing.T) {
	_, db, ts := testServer(t, temporalrank.MethodExact3)
	tend := db.End()
	for i, v := range []float64{0, -6e307, -6e307, -6e307, 6e307, 6e307, 6e307, 6e307, 6e307, 6e307} {
		body, _ := json.Marshal(appendRequest{ID: 0, T: tend + float64(i+1), V: v})
		resp, err := http.Post(ts.URL+"/append", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d: status %d, want 200", i, resp.StatusCode)
		}
	}
	var e struct{ Error string }
	if code := getJSON(t, fmt.Sprintf("%s/query?k=3&t1=%f&t2=%f", ts.URL, tend+4, tend+10), &e); code != http.StatusInternalServerError || e.Error == "" {
		t.Fatalf("/query over an infinite score: status %d, error %q; want 500 with an error", code, e.Error)
	}
}

// TestShardedServer: -shards 8 serves /query with correct merged
// results and metadata through the same HTTP surface.
func TestShardedServer(t *testing.T) {
	_, db, ts := testShardedServer(t, 8, temporalrank.MethodExact3)
	t1, t2 := db.Start(), db.End()

	var st statsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if st.Shards != 8 || st.Objects != db.NumSeries() || st.Segments != db.NumSegments() {
		t.Fatalf("sharded stats: %+v", st)
	}
	perShardTotal := 0
	for _, sh := range st.PerShard {
		perShardTotal += sh.Objects
	}
	if perShardTotal != db.NumSeries() {
		t.Fatalf("per-shard objects sum to %d, want %d", perShardTotal, db.NumSeries())
	}

	var q queryResponse
	if code := getJSON(t, fmt.Sprintf("%s/query?k=5&t1=%g&t2=%g", ts.URL, t1, t2), &q); code != http.StatusOK {
		t.Fatalf("/query status %d", code)
	}
	if q.Method != string(temporalrank.MethodExact3) || !q.Exact {
		t.Fatalf("merged metadata: %+v", q)
	}
	want := sumReference(t, db, 5, t1, t2)
	for j := range want {
		if q.Results[j].ID != want[j].ID {
			t.Fatalf("rank %d: got object %d, want %d", j, q.Results[j].ID, want[j].ID)
		}
	}

	// /score and /append route by global ID.
	var sc scoreResponse
	if code := getJSON(t, fmt.Sprintf("%s/score?id=7&t1=%g&t2=%g", ts.URL, t1, t2), &sc); code != http.StatusOK {
		t.Fatalf("/score status %d", code)
	}
	wantScore, err := db.Score(7, t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	diff := sc.Score - wantScore
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-6 {
		t.Fatalf("sharded /score got %g, want %g", sc.Score, wantScore)
	}
	body, _ := json.Marshal(appendRequest{ID: 7, T: db.End() + 1, V: 2})
	resp, err := http.Post(ts.URL+"/append", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded append: status %d", resp.StatusCode)
	}
}

// TestLoadDBGen covers the synthetic data path used by -gen.
func TestLoadDBGen(t *testing.T) {
	db, err := loadDB("", "30x20", 2)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSeries() != 30 {
		t.Fatalf("got %d series, want 30", db.NumSeries())
	}
	if _, err := loadDB("", "garbage", 2); err == nil {
		t.Fatal("bad -gen spec should fail")
	}
	if _, err := loadDB("", "", 2); err == nil {
		t.Fatal("missing -data and -gen should fail")
	}
}

// TestLoadDBDetectsFormat: -data alone loads a TRK1 file and a CSV
// file alike, each to the dataset written.
func TestLoadDBDetectsFormat(t *testing.T) {
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 12, Navg: 15, Seed: 8, Span: 100})
	if err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(io.Writer, *tsdata.Dataset) error{
		"d.trk": tsio.WriteBinary,
		"d.csv": tsio.WriteCSV,
	} {
		path := filepath.Join(t.TempDir(), name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f, ds); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		cfg := config{data: path, shards: 1}
		if err := validateConfig(cfg, map[string]bool{"data": true}); err != nil {
			t.Fatalf("%s: validateConfig: %v", name, err)
		}
		db, err := loadDB(cfg.data, cfg.genSpec, cfg.seed)
		if err != nil {
			t.Fatalf("%s: loadDB: %v", name, err)
		}
		if db.NumSeries() != ds.NumSeries() || db.NumSegments() != ds.NumSegments() {
			t.Fatalf("%s: loaded (%d, %d), want (%d, %d)", name,
				db.NumSeries(), db.NumSegments(), ds.NumSeries(), ds.NumSegments())
		}
	}
}

// TestCheckpointEndpointAndRestore exercises the durable-snapshot
// lifecycle: POST /checkpoint writes per-shard files, a fresh server
// restores them (the restart path), and the restored server answers
// queries identically to the original.
func TestCheckpointEndpointAndRestore(t *testing.T) {
	srv, db, ts := testShardedServer(t, 2, temporalrank.MethodExact3)

	// Without -data DIR the endpoint must refuse, not write anywhere.
	resp, err := http.Post(ts.URL+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint without snapshot dir: status %d, want 409", resp.StatusCode)
	}

	dir := t.TempDir()
	srv.snapDir = dir
	var ck struct {
		Status string `json:"status"`
		Dir    string `json:"dir"`
	}
	resp, err = http.Post(ts.URL+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ck); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ck.Status != "checkpointed" {
		t.Fatalf("checkpoint: status %d body %+v", resp.StatusCode, ck)
	}
	if !hasSnapshotFiles(dir) {
		t.Fatalf("no snapshot files in %s after /checkpoint", dir)
	}

	// "Restart": restore into a second server process's stack.
	restored, err := temporalrank.OpenClusterSnapshot(dir, temporalrank.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := newServer(restored, 4, 30*time.Second)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	span := db.End() - db.Start()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		t1 := db.Start() + rng.Float64()*span*0.7
		t2 := t1 + rng.Float64()*span*0.3
		url := fmt.Sprintf("/query?agg=sum&k=5&t1=%g&t2=%g", t1, t2)
		var a, b struct {
			Results []struct {
				ID    int     `json:"id"`
				Score float64 `json:"score"`
			} `json:"results"`
		}
		if code := getJSON(t, ts.URL+url, &a); code != http.StatusOK {
			t.Fatalf("original %s: status %d", url, code)
		}
		if code := getJSON(t, ts2.URL+url, &b); code != http.StatusOK {
			t.Fatalf("restored %s: status %d", url, code)
		}
		if len(a.Results) != len(b.Results) {
			t.Fatalf("%s: %d vs %d results", url, len(a.Results), len(b.Results))
		}
		for i := range a.Results {
			if a.Results[i] != b.Results[i] {
				t.Fatalf("%s rank %d: original %+v, restored %+v", url, i, a.Results[i], b.Results[i])
			}
		}
	}

	// Appends keep working on the restored stack (frontiers survived).
	body := bytes.NewBufferString(fmt.Sprintf(`{"id":0,"t":%g,"v":1.5}`, db.End()+1))
	resp, err = http.Post(ts2.URL+"/append", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append on restored server: status %d", resp.StatusCode)
	}
}

// TestSnapshotDirDetection pins the -data disambiguation rules:
// checkDataPath classifies the path (creating a fresh snapshot
// directory under -gen), then snapshotDir reports whether it is one.
func TestSnapshotDirDetection(t *testing.T) {
	dir := t.TempDir()
	if err := checkDataPath(dir, ""); err != nil {
		t.Fatalf("existing dir: %v", err)
	}
	if got := snapshotDir(dir); got != dir {
		t.Fatalf("existing dir: snapshotDir = %q, want %q", got, dir)
	}
	file := dir + "/data.csv"
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkDataPath(file, "10x10"); err != nil {
		t.Fatalf("existing file: %v", err)
	}
	if got := snapshotDir(file); got != "" {
		t.Fatalf("existing file: snapshotDir = %q, want legacy dataset mode", got)
	}
	fresh := dir + "/snaps"
	if err := checkDataPath(fresh, "10x10"); err != nil {
		t.Fatalf("fresh path with -gen: %v", err)
	}
	if fi, err := os.Stat(fresh); err != nil || !fi.IsDir() {
		t.Fatalf("fresh snapshot dir was not created: %v", err)
	}
	if got := snapshotDir(fresh); got != fresh {
		t.Fatalf("fresh path with -gen: snapshotDir = %q, want %q", got, fresh)
	}
	missing := dir + "/missing.csv"
	if err := checkDataPath(missing, ""); err == nil {
		t.Fatal("missing path without -gen: checkDataPath accepted it")
	}
	if got := snapshotDir(missing); got != "" {
		t.Fatalf("missing path without -gen: snapshotDir = %q, want \"\"", got)
	}
}
