package temporalrank_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"temporalrank"
)

// The distributed acceptance suite: RemoteCluster over real TCP
// sockets (loopback listeners, separate ShardNode instances per
// replica) must answer exactly like the same planners queried
// in-process, and must keep answering through replica kills and
// re-bootstraps.

// tierNode is one in-process shard server bound to a real socket.
type tierNode struct {
	dir  string
	addr string
	node *temporalrank.ShardNode
}

// bootNode starts a ShardNode over dir on addr ("" picks an ephemeral
// loopback port). The caller stops it via stop().
func bootNode(t *testing.T, dir, addr string) *tierNode {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	node, err := temporalrank.NewShardNode(dir)
	if err != nil {
		t.Fatalf("shard node %s: %v", dir, err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		node.Close()
		t.Fatalf("listen %s: %v", addr, err)
	}
	go node.Serve(ln)
	n := &tierNode{dir: dir, addr: ln.Addr().String(), node: node}
	t.Cleanup(func() { n.stop() })
	return n
}

func (n *tierNode) stop() { n.node.Close() }

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// buildTier checkpoints a cluster of `groups` shards built over inputs
// and boots `replicas` shard nodes per group, each hosting exactly its
// group's shard. It returns the booted nodes as nodes[group][replica]
// and the master snapshot directory.
func buildTier(t *testing.T, inputs []temporalrank.SeriesInput, groups, replicas int, indexes []temporalrank.Options) (nodes [][]*tierNode, masterDir string) {
	t.Helper()
	c, err := temporalrank.NewCluster(inputs, temporalrank.ClusterOptions{Shards: groups, Indexes: indexes})
	if err != nil {
		t.Fatal(err)
	}
	masterDir = t.TempDir()
	if err := c.Checkpoint(masterDir); err != nil {
		t.Fatal(err)
	}
	nodes = make([][]*tierNode, groups)
	for g := 0; g < groups; g++ {
		shardFile := fmt.Sprintf("shard-%04d.trsnap", g)
		nodes[g] = make([]*tierNode, replicas)
		for r := 0; r < replicas; r++ {
			dir := filepath.Join(t.TempDir(), fmt.Sprintf("g%dr%d", g, r))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			copyFile(t, filepath.Join(masterDir, shardFile), filepath.Join(dir, shardFile))
			nodes[g][r] = bootNode(t, dir, "")
		}
	}
	return nodes, masterDir
}

// groupAddrs projects the booted nodes into NewRemoteCluster's input.
func groupAddrs(nodes [][]*tierNode) [][]string {
	out := make([][]string, len(nodes))
	for g, reps := range nodes {
		for _, n := range reps {
			out[g] = append(out[g], n.addr)
		}
	}
	return out
}

// testIndexes is the index set the distributed suite runs: one exact
// family and the most involved approximate one, so both routing
// outcomes cross the wire.
func testIndexes() []temporalrank.Options {
	return []temporalrank.Options{
		{Method: temporalrank.MethodExact3},
		{Method: temporalrank.MethodAppx2P, TargetR: 100, KMax: 50},
	}
}

// randomQueries yields the sum/avg/instant sweep the equivalence
// trials run, mixing exact and approximate tolerance.
func randomQueries(rng *rand.Rand, start, span float64) []temporalrank.Query {
	t1 := start + rng.Float64()*span*0.8
	t2 := t1 + rng.Float64()*span*0.2
	k := 1 + rng.Intn(12)
	eps := 0.0
	if rng.Intn(2) == 1 {
		eps = 0.5
	}
	return []temporalrank.Query{
		{Agg: temporalrank.AggSum, K: k, T1: t1, T2: t2, MaxEpsilon: eps},
		{Agg: temporalrank.AggAvg, K: k, T1: t1, T2: t2, MaxEpsilon: eps},
		{Agg: temporalrank.AggInstant, K: k, T1: t1, MaxEpsilon: eps},
	}
}

// TestRemoteClusterEquivalence is the load-bearing acceptance test:
// for groups {1,2} x replicas {1,2}, a RemoteCluster over sockets must
// answer every randomized sum/avg/instant query bit-identically to an
// in-process cluster restored from the same snapshots (same Results,
// Method, Exact, Epsilon), and exact queries must match the
// brute-force DB reference.
func TestRemoteClusterEquivalence(t *testing.T) {
	inputs := clusterInputs(t, 60, 25, 17)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	span := db.End() - db.Start()
	for _, groups := range []int{1, 2} {
		for _, replicas := range []int{1, 2} {
			t.Run(fmt.Sprintf("groups=%d/replicas=%d", groups, replicas), func(t *testing.T) {
				nodes, masterDir := buildTier(t, inputs, groups, replicas, testIndexes())
				local, err := temporalrank.OpenClusterSnapshot(masterDir, temporalrank.ClusterOptions{})
				if err != nil {
					t.Fatal(err)
				}
				rc, err := temporalrank.NewRemoteCluster(groupAddrs(nodes), temporalrank.RemoteClusterOptions{
					HealthInterval: -1, // driven manually; keeps trials deterministic
				})
				if err != nil {
					t.Fatal(err)
				}
				defer rc.Close()
				if rc.NumShards() != groups || rc.NumSeries() != db.NumSeries() {
					t.Fatalf("topology: %d shards / %d series, want %d / %d",
						rc.NumShards(), rc.NumSeries(), groups, db.NumSeries())
				}
				rng := rand.New(rand.NewSource(int64(groups*10 + replicas)))
				for trial := 0; trial < 15; trial++ {
					for _, q := range randomQueries(rng, db.Start(), span) {
						got, err := rc.Run(ctx, q)
						if err != nil {
							t.Fatalf("remote agg=%s: %v", q.Agg, err)
						}
						want, err := local.Run(ctx, q)
						if err != nil {
							t.Fatalf("local agg=%s: %v", q.Agg, err)
						}
						label := fmt.Sprintf("agg=%s eps=%g", q.Agg, q.MaxEpsilon)
						sameResults(t, label, got.Results, want.Results)
						if got.Method != want.Method || got.Exact != want.Exact || got.Epsilon != want.Epsilon {
							t.Fatalf("%s: merged answer (%s, exact=%v, eps=%g) != local (%s, exact=%v, eps=%g)",
								label, got.Method, got.Exact, got.Epsilon, want.Method, want.Exact, want.Epsilon)
						}
						if q.MaxEpsilon == 0 {
							ref, err := db.Run(ctx, q)
							if err != nil {
								t.Fatal(err)
							}
							sameRanking(t, label+" vs DB", got.Results, ref.Results)
						}
					}
				}
			})
		}
	}
}

// TestRemoteClusterScoreAndErrors checks the per-object paths and
// typed error propagation across the wire.
func TestRemoteClusterScoreAndErrors(t *testing.T) {
	inputs := clusterInputs(t, 30, 15, 5)
	nodes, _ := buildTier(t, inputs, 2, 2, []temporalrank.Options{{Method: temporalrank.MethodExact3}})
	rc, err := temporalrank.NewRemoteCluster(groupAddrs(nodes), temporalrank.RemoteClusterOptions{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < db.NumSeries(); id += 7 {
		got, err := rc.Score(id, db.Start(), db.End())
		if err != nil {
			t.Fatalf("score %d: %v", id, err)
		}
		want, err := db.Score(id, db.Start(), db.End())
		if err != nil {
			t.Fatal(err)
		}
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		scale := want
		if scale < 0 {
			scale = -scale
		}
		if scale < 1 {
			scale = 1
		}
		if diff > 1e-9*scale {
			t.Fatalf("score %d: got %g, want %g", id, got, want)
		}
	}
	if _, err := rc.Score(db.NumSeries()+5, 0, 1); !errors.Is(err, temporalrank.ErrUnknownSeries) {
		t.Fatalf("out-of-range score: %v", err)
	}
	if err := rc.Append(-1, 0, 0); !errors.Is(err, temporalrank.ErrUnknownSeries) {
		t.Fatalf("out-of-range append: %v", err)
	}
	// An invalid query fails typed across the wire, not as a transport
	// error.
	if _, err := rc.Run(context.Background(), temporalrank.Query{K: 1, T1: 10, T2: 5}); !errors.Is(err, temporalrank.ErrBadInterval) {
		t.Fatalf("inverted interval: %v", err)
	}
	// Run rejects that interval before any RPC; Score's reaches a replica.
	if _, err := rc.Score(0, 10, 5); !errors.Is(err, temporalrank.ErrBadInterval) {
		t.Fatalf("inverted score interval: %v", err)
	}
	// An application error neither demotes a replica nor fails over.
	for g, gh := range rc.Health() {
		for j, rh := range gh.Replicas {
			if rh.State != "live" {
				t.Errorf("group %d replica %d (%s): state %q after an application error, want \"live\"", g, j, rh.Addr, rh.State)
			}
		}
	}
}

// TestRemoteClusterKillReplicaMidRun kills one replica per group while
// randomized queries are in flight: every query must keep succeeding
// (transport failover inside the group read) and keep answering
// exactly like the brute-force reference.
func TestRemoteClusterKillReplicaMidRun(t *testing.T) {
	inputs := clusterInputs(t, 60, 20, 23)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	nodes, _ := buildTier(t, inputs, 2, 2, []temporalrank.Options{{Method: temporalrank.MethodExact3}})
	rc, err := temporalrank.NewRemoteCluster(groupAddrs(nodes), temporalrank.RemoteClusterOptions{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	ctx := context.Background()
	span := db.End() - db.Start()
	stop := make(chan struct{})
	failures := make(chan error, 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				t1 := db.Start() + rng.Float64()*span*0.8
				t2 := t1 + rng.Float64()*span*0.2
				q := temporalrank.SumQuery(1+rng.Intn(10), t1, t2)
				got, err := rc.Run(ctx, q)
				if err != nil {
					failures <- fmt.Errorf("query during kill: %w", err)
					return
				}
				want, err := db.Run(ctx, q)
				if err != nil {
					failures <- err
					return
				}
				for j := range want.Results {
					if got.Results[j].ID != want.Results[j].ID {
						failures <- fmt.Errorf("rank %d: got ID %d, want %d", j, got.Results[j].ID, want.Results[j].ID)
						return
					}
				}
			}
		}(int64(w) + 100)
	}
	time.Sleep(50 * time.Millisecond) // let queries get in flight
	for g := range nodes {
		nodes[g][1].stop() // kill one replica per group mid-run
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Error(err)
	}
	// With one replica per group gone, queries must still answer. Two
	// reads, because the read order rotates: one of them starts at the
	// killed replica if nothing has marked it down yet.
	for i := 0; i < 2; i++ {
		if _, err := rc.Run(ctx, temporalrank.SumQuery(5, db.Start(), db.End())); err != nil {
			t.Fatalf("query after kill: %v", err)
		}
	}
	// Failover demoted exactly the killed replicas.
	for g, gh := range rc.Health() {
		for j, rh := range gh.Replicas {
			want := "live"
			if j == 1 {
				want = "down"
			}
			if rh.State != want {
				t.Errorf("group %d replica %d (%s): state %q, want %q", g, j, rh.Addr, rh.State, want)
			}
		}
	}
}

// TestRemoteClusterReplicaCatchUp is the bootstrap acceptance test: a
// replica killed, wiped, and restarted empty must catch up via the
// primary's streamed snapshot (including appends it missed) and then
// serve bit-identical answers on its own.
func TestRemoteClusterReplicaCatchUp(t *testing.T) {
	inputs := clusterInputs(t, 40, 15, 31)
	nodes, _ := buildTier(t, inputs, 2, 2, testIndexes())
	rc, err := temporalrank.NewRemoteCluster(groupAddrs(nodes), temporalrank.RemoteClusterOptions{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ctx := context.Background()

	// Kill replica 1 of each group and wipe its state entirely.
	for g := range nodes {
		n := nodes[g][1]
		n.stop()
		if err := os.RemoveAll(n.dir); err != nil {
			t.Fatal(err)
		}
	}
	// Appends land on the surviving primaries (and mark the dead
	// replicas Down on the way).
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 30; i++ {
		id := rng.Intn(rc.NumSeries())
		if err := rc.Append(id, 1e6+float64(i), rng.Float64()*10); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// Capture the post-append answers while only the primaries serve.
	queries := []temporalrank.Query{
		temporalrank.SumQuery(10, 0, 1e6+30),
		temporalrank.AvgQuery(7, 100, 1e6),
		temporalrank.InstantQuery(5, 1e6+15),
		{Agg: temporalrank.AggSum, K: 8, T1: 0, T2: 1e6, MaxEpsilon: 0.5},
	}
	runAll := func(stage string) []temporalrank.Answer {
		t.Helper()
		out := make([]temporalrank.Answer, len(queries))
		for i, q := range queries {
			if out[i], err = rc.Run(ctx, q); err != nil {
				t.Fatalf("%s query %d: %v", stage, i, err)
			}
		}
		return out
	}
	pre := runAll("pre-catch-up")

	// Restart the wiped replicas empty, on their original addresses.
	for g := range nodes {
		old := nodes[g][1]
		nodes[g][1] = bootNode(t, old.dir, old.addr)
	}
	// One health sweep must re-bootstrap them from the primaries.
	if err := rc.HealthCheck(ctx); err != nil {
		t.Fatalf("health check: %v", err)
	}
	for _, gh := range rc.Health() {
		for _, rh := range gh.Replicas {
			if rh.State != "live" {
				t.Fatalf("shard %d replica %s is %s after catch-up, want live", gh.Shard, rh.Addr, rh.State)
			}
		}
	}
	// Each primary drained its memtable into the snapshot it streamed,
	// so primaries and caught-up replicas now hold one compacted stack.
	// The exact answers carry the appends exactly as the primaries'
	// memtables merged them (up to float rounding).
	expected := runAll("post-catch-up primary")
	for i := range queries {
		if expected[i].Exact {
			sameRanking(t, fmt.Sprintf("compacted query %d", i), expected[i].Results, pre[i].Results)
		}
	}
	// Kill the primaries: the caught-up replicas now serve alone and
	// must answer bit-identically, appends included.
	for g := range nodes {
		nodes[g][0].stop()
	}
	for i, got := range runAll("post-catch-up replica") {
		sameResults(t, fmt.Sprintf("catch-up query %d", i), got.Results, expected[i].Results)
		if got.Method != expected[i].Method || got.Exact != expected[i].Exact || got.Epsilon != expected[i].Epsilon {
			t.Fatalf("catch-up query %d: answer metadata diverged", i)
		}
	}
}

// TestRemoteClusterAllGroupsDown checks the typed degradation: with
// every replica of a group gone, queries fail with ErrShardUnavailable
// (not a hang, not an untyped error).
func TestRemoteClusterAllGroupsDown(t *testing.T) {
	inputs := clusterInputs(t, 20, 10, 3)
	nodes, _ := buildTier(t, inputs, 1, 2, []temporalrank.Options{{Method: temporalrank.MethodExact3}})
	rc, err := temporalrank.NewRemoteCluster(groupAddrs(nodes), temporalrank.RemoteClusterOptions{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for _, n := range nodes[0] {
		n.stop()
	}
	_, err = rc.Run(context.Background(), temporalrank.SumQuery(5, 0, 100))
	if !errors.Is(err, temporalrank.ErrShardUnavailable) {
		t.Fatalf("want ErrShardUnavailable, got %v", err)
	}
}
