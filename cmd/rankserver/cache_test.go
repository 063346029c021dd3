package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"temporalrank"
	"temporalrank/internal/gen"
)

// httpPost sends a JSON body and returns the status code.
func httpPost(url, body string) (int, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// testCachedServer is testShardedServer with the result cache enabled —
// the -result-cache N serving configuration.
func testCachedServer(t *testing.T, shards, entries int) (*server, *temporalrank.DB, *httptest.Server) {
	t.Helper()
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 50, Navg: 40, Seed: 5, Span: 200})
	if err != nil {
		t.Fatal(err)
	}
	db := temporalrank.NewDBFromDataset(ds)
	cluster, err := temporalrank.NewClusterFromDB(db, temporalrank.ClusterOptions{
		Shards:      shards,
		Indexes:     []temporalrank.Options{{Method: temporalrank.MethodExact3}},
		ResultCache: entries,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(cluster, 8, 30*time.Second)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, db, ts
}

// TestStatsResultCacheBlock: /stats surfaces hit/miss/coalesce counts
// when the cache is on, and omits the block entirely when it is off.
func TestStatsResultCacheBlock(t *testing.T) {
	_, db, ts := testCachedServer(t, 2, 64)
	url := fmt.Sprintf("%s/query?agg=sum&k=5&t1=%g&t2=%g", ts.URL, db.Start(), db.End())
	var q struct {
		Results []struct {
			ID int `json:"id"`
		} `json:"results"`
	}
	for i := 0; i < 3; i++ {
		if code := getJSON(t, url, &q); code != 200 {
			t.Fatalf("query %d status %d", i, code)
		}
	}
	var stats struct {
		ResultCache *struct {
			Hits      uint64  `json:"hits"`
			Misses    uint64  `json:"misses"`
			Coalesced uint64  `json:"coalesced"`
			HitRatio  float64 `json:"hit_ratio"`
		} `json:"result_cache"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != 200 {
		t.Fatalf("/stats status %d", code)
	}
	if stats.ResultCache == nil {
		t.Fatal("/stats missing result_cache block on a cached server")
	}
	if stats.ResultCache.Misses < 1 || stats.ResultCache.Hits < 2 {
		t.Fatalf("result_cache = %+v, want >= 1 miss and >= 2 hits after 3 identical queries", *stats.ResultCache)
	}
	if stats.ResultCache.HitRatio <= 0 {
		t.Fatalf("hit_ratio = %g, want > 0", stats.ResultCache.HitRatio)
	}

	// Uncached server: the block must be absent.
	_, _, ts2 := testServer(t, temporalrank.MethodExact3)
	var raw map[string]any
	if code := getJSON(t, ts2.URL+"/stats", &raw); code != 200 {
		t.Fatalf("/stats status %d", code)
	}
	if _, ok := raw["result_cache"]; ok {
		t.Fatal("/stats exposes result_cache on an uncached server")
	}
}

// TestQueryIgnoresBudget: budget= is no query parameter, so it is
// ignored like any unknown one. A query with it is the same cache entry
// as one without, and answers with a byte-identical body.
func TestQueryIgnoresBudget(t *testing.T) {
	_, db, ts := testCachedServer(t, 2, 64)
	url := fmt.Sprintf("%s/query?agg=sum&k=5&t1=%g&t2=%g&eps=0", ts.URL, db.Start(), db.End())
	get := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
		}
		return string(body)
	}
	want := get(url)
	for _, budget := range []string{"1", "100000", "abc"} {
		if got := get(url + "&budget=" + budget); got != want {
			t.Fatalf("budget=%s: body %s, want %s", budget, got, want)
		}
	}
}

// TestCachedServerAppendInvalidates: a cached /query answer must
// reflect a POST /append that happened in between.
func TestCachedServerAppendInvalidates(t *testing.T) {
	_, db, ts := testCachedServer(t, 2, 64)
	url := fmt.Sprintf("%s/query?agg=sum&k=3&t1=%g&t2=%g", ts.URL, db.Start(), db.End()+100)
	var before, after struct {
		Results []struct {
			ID    int     `json:"id"`
			Score float64 `json:"score"`
		} `json:"results"`
	}
	if code := getJSON(t, url, &before); code != 200 {
		t.Fatalf("status %d", code)
	}
	if code := getJSON(t, url, &before); code != 200 { // warm the cache
		t.Fatalf("status %d", code)
	}

	// Append a massive spike to the current last-ranked object.
	loser := before.Results[len(before.Results)-1].ID
	body := fmt.Sprintf(`{"id":%d,"t":%g,"v":%g}`, loser, db.End()+50, 1e9)
	resp, err := httpPost(ts.URL+"/append", body)
	if err != nil {
		t.Fatal(err)
	}
	if resp != 200 {
		t.Fatalf("/append status %d", resp)
	}

	if code := getJSON(t, url, &after); code != 200 {
		t.Fatalf("status %d", code)
	}
	if after.Results[0].ID != loser {
		t.Fatalf("post-append winner = %d, want appended object %d (stale cached answer?)",
			after.Results[0].ID, loser)
	}
}

// TestStatsReportsCompactionPerShard: on a -memtable server /stats
// says, shard by shard, how long the last background compaction took
// (and would carry its error); shards that have not compacted say
// nothing.
func TestStatsReportsCompactionPerShard(t *testing.T) {
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 20, Navg: 10, Seed: 5, Span: 200})
	if err != nil {
		t.Fatal(err)
	}
	db := temporalrank.NewDBFromDataset(ds)
	cluster, err := temporalrank.NewClusterFromDB(db, temporalrank.ClusterOptions{
		Shards:   2,
		Indexes:  []temporalrank.Options{{Method: temporalrank.MethodExact3}},
		Memtable: &temporalrank.MemtableOptions{FlushSegments: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(cluster, 2, 30*time.Second)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := fmt.Sprintf(`{"id":0,"t":%g,"v":1}`, db.End()+1)
	if code, err := httpPost(ts.URL+"/append", body); err != nil || code != 200 {
		t.Fatalf("append: status %d, %v", code, err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var st statsResponse
		if code := getJSON(t, ts.URL+"/stats", &st); code != 200 {
			t.Fatalf("/stats status %d", code)
		}
		compacted := 0
		for _, sh := range st.PerShard {
			if sh.LastCompactionError != "" {
				t.Fatalf("shard %d: compaction failed: %s", sh.Shard, sh.LastCompactionError)
			}
			if sh.LastCompactionSeconds > 0 {
				compacted++
			}
		}
		if compacted == 1 { // the shard that owns series 0, and only it
			return
		}
		if compacted > 1 || time.Now().After(deadline) {
			t.Fatalf("%d shards report a compaction, want 1: %+v", compacted, st.PerShard)
		}
	}
}
