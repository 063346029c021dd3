package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"temporalrank"
	"temporalrank/internal/gen"
)

// testRouterServer boots a full in-process distributed tier — a
// 2-shard cluster checkpointed to disk, one shardserver node per
// shard, a RemoteCluster over them — and fronts it with the router
// HTTP server. The local cluster is returned as the reference.
func testRouterServer(t *testing.T) (*temporalrank.Cluster, *httptest.Server) {
	t.Helper()
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 40, Navg: 30, Seed: 11, Span: 200})
	if err != nil {
		t.Fatal(err)
	}
	db := temporalrank.NewDBFromDataset(ds)
	cluster, err := temporalrank.NewClusterFromDB(db, temporalrank.ClusterOptions{
		Shards:  2,
		Indexes: []temporalrank.Options{{Method: temporalrank.MethodExact3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	master := t.TempDir()
	if err := cluster.Checkpoint(master); err != nil {
		t.Fatal(err)
	}

	groups := make([][]string, cluster.NumShards())
	for shard := range groups {
		name := fmt.Sprintf("shard-%04d.trsnap", shard)
		dir := t.TempDir()
		blob, err := os.ReadFile(filepath.Join(master, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		node, err := temporalrank.NewShardNode(dir)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go node.Serve(ln)
		t.Cleanup(func() { node.Close() })
		groups[shard] = []string{ln.Addr().String()}
	}

	rc, err := temporalrank.NewRemoteCluster(groups, temporalrank.RemoteClusterOptions{
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(rc, 4, 30*time.Second)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		rc.Close()
	})
	return cluster, ts
}

// TestRouterModeServesSameAPI drives the router HTTP server end to
// end over real sockets: queries match the local reference cluster,
// appends replicate through to /score, /stats reports the remote
// topology, and /checkpoint fans out without error.
func TestRouterModeServesSameAPI(t *testing.T) {
	cluster, ts := testRouterServer(t)

	var q queryResponse
	if code := getJSON(t, ts.URL+"/query?agg=sum&k=7&t1=40&t2=160", &q); code != 200 {
		t.Fatalf("/query status %d", code)
	}
	want, err := cluster.Run(t.Context(), temporalrank.SumQuery(7, 40, 160))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Results) != len(want.Results) {
		t.Fatalf("router returned %d results, reference %d", len(q.Results), len(want.Results))
	}
	for i, r := range q.Results {
		if r.ID != want.Results[i].ID || r.Score != want.Results[i].Score {
			t.Fatalf("result %d: router (%d, %g), reference (%d, %g)",
				i, r.ID, r.Score, want.Results[i].ID, want.Results[i].Score)
		}
	}
	if !q.Exact {
		t.Fatal("exact query answered inexactly through the router")
	}

	var st statsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != 200 {
		t.Fatalf("/stats status %d", code)
	}
	if st.Method != "REMOTE" || st.Shards != 2 || st.Objects != cluster.NumSeries() {
		t.Fatalf("stats = method %q, %d shards, %d objects; want REMOTE, 2, %d",
			st.Method, st.Shards, st.Objects, cluster.NumSeries())
	}
	if len(st.Router) != 2 {
		t.Fatalf("stats lists %d shard groups, want 2", len(st.Router))
	}
	for _, g := range st.Router {
		for _, rep := range g.Replicas {
			if rep.State != "live" {
				t.Fatalf("replica %s in state %q, want live", rep.Addr, rep.State)
			}
		}
	}

	resp, err := ts.Client().Post(ts.URL+"/append", "application/json",
		bytes.NewReader([]byte(`{"id":3,"t":500,"v":9.5}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/append status %d", resp.StatusCode)
	}
	if err := cluster.Append(3, 500, 9.5); err != nil {
		t.Fatal(err)
	}
	var sc scoreResponse
	if code := getJSON(t, ts.URL+"/score?id=3&t1=400&t2=500", &sc); code != 200 {
		t.Fatalf("/score status %d", code)
	}
	wantScore, err := cluster.Score(3, 400, 500)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Score != wantScore {
		t.Fatalf("score after append = %g, reference %g", sc.Score, wantScore)
	}
	if sc.Method != "EXACT3" || !sc.Exact {
		t.Fatalf("score labelled method %q exact %v; the shards answer through EXACT3", sc.Method, sc.Exact)
	}

	resp, err = ts.Client().Post(ts.URL+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/checkpoint status %d", resp.StatusCode)
	}
}
