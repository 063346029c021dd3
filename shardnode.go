package temporalrank

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"

	"temporalrank/internal/blockio"
	"temporalrank/internal/remote"
	"temporalrank/internal/snapshot"
)

// This file is the server half of the distributed serving tier: a
// ShardNode hosts one or more cluster shards — each a Planner restored
// from its shard-NNNN.trsnap snapshot — and answers the RPCs a
// RemoteCluster router issues: query, append, score, checkpoint, meta
// (health/topology probe), snapshot (streamed transfer of one shard's
// full stack), and restore (pull a shard from a peer and install it,
// the replica bootstrap/catch-up path). cmd/shardserver is a thin main
// around this type.
//
// A hosted shard is the same localShard a Cluster scatters over, so
// every query answer leaves the node in GLOBAL series IDs (remapped
// through the manifest's ascending Global list, which preserves tie
// order) and the router merges it exactly as the in-process Cluster
// merges its own shards.

// RPC request/reply DTOs. All fields exported for gob.

// rpcShardInfo describes one hosted shard in a meta reply.
type rpcShardInfo struct {
	Shard     int
	NumShards int
	NumSeries int    // global object count m
	Version   uint64 // the shard DB's append counter
	Method    Method // the primary method Score answers from
}

// rpcMetaReply answers the "meta" probe: every shard the node hosts.
type rpcMetaReply struct {
	Shards []rpcShardInfo
}

// rpcRoutingReply answers "routing": the global-ID list of one shard,
// from which a router derives global→shard placement.
type rpcRoutingReply struct {
	Global []int
}

type rpcQueryReq struct {
	Shard int
	Query Query
}

type rpcQueryReply struct {
	Answer Answer
}

type rpcAppendReq struct {
	Shard int
	ID    int // global series ID
	T, V  float64
}

type rpcAppendReply struct {
	Version uint64 // shard version after the append
}

type rpcScoreReq struct {
	Shard  int
	ID     int // global series ID
	T1, T2 float64
}

type rpcScoreReply struct {
	Score float64
}

// rpcShardReq names one shard (checkpoint, routing, snapshot streams).
type rpcShardReq struct {
	Shard int
}

// rpcRestoreReq tells a node to (re)bootstrap one shard by pulling a
// streamed snapshot from the peer at From.
type rpcRestoreReq struct {
	Shard int
	From  string
}

// ShardNode hosts shard replicas and serves the distributed tier's
// RPCs. Construct with NewShardNode, serve with Serve (usually on its
// own goroutine), stop with Close. Safe for concurrent use: queries
// and appends inherit the Planner locking rules; installing a restored
// shard swaps a pointer under the node lock.
type ShardNode struct {
	dir    string
	opts   ShardNodeOptions
	srv    *remote.Server
	client *remote.Client

	mu     sync.RWMutex
	shards map[int]*localShard
}

// ShardNodeOptions are a node's runtime knobs — applied to every shard
// the node hosts, whether restored at boot or installed later through
// a restore RPC.
type ShardNodeOptions struct {
	// Memtable sets the options of each hosted shard planner's memtable,
	// which replicated appends land in (see Planner.EnableMemtable). nil
	// keeps the defaults.
	Memtable *MemtableOptions
}

// NewShardNode restores every shard-NNNN.trsnap under dir (creating
// the directory if needed) and returns a node serving them. An empty
// directory is valid: the node starts hosting nothing and acquires
// shards through restore RPCs — the cold-replica bootstrap path.
func NewShardNode(dir string) (*ShardNode, error) {
	return NewShardNodeWithOptions(dir, ShardNodeOptions{})
}

// NewShardNodeWithOptions is NewShardNode with runtime knobs.
func NewShardNodeWithOptions(dir string, opts ShardNodeOptions) (*ShardNode, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("temporalrank: shard node: %w", err)
	}
	n := &ShardNode{
		dir:    dir,
		opts:   opts,
		srv:    remote.NewServer(0),
		client: remote.NewClient(remote.ClientOptions{}),
		shards: make(map[int]*localShard),
	}
	paths, err := listSnapshotFiles(dir)
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		sh, err := openShardFile(path, opts.Memtable)
		if err != nil {
			return nil, err
		}
		if _, dup := n.shards[sh.meta.Shard]; dup {
			return nil, fmt.Errorf("temporalrank: duplicate snapshot for shard %d under %s: %w", sh.meta.Shard, dir, ErrBadSnapshot)
		}
		n.shards[sh.meta.Shard] = sh
	}
	n.register()
	return n, nil
}

// register wires the RPC handlers.
func (n *ShardNode) register() {
	n.srv.Handle("meta", n.handleMeta)
	n.srv.Handle("routing", n.handleRouting)
	n.srv.Handle("query", n.handleQuery)
	n.srv.Handle("append", n.handleAppend)
	n.srv.Handle("score", n.handleScore)
	n.srv.Handle("checkpoint", n.handleCheckpoint)
	n.srv.Handle("restore", n.handleRestore)
	n.srv.HandleStream("snapshot", n.handleSnapshot)
}

// Serve accepts RPC connections on ln until the node is closed. It
// blocks; run it on its own goroutine.
func (n *ShardNode) Serve(ln net.Listener) error { return n.srv.Serve(ln) }

// Close stops serving, severs open connections, and releases the
// node's outbound client. Hosted shards stay restorable from dir.
func (n *ShardNode) Close() error {
	err := n.srv.Close()
	if cerr := n.client.Close(); err == nil {
		err = cerr
	}
	return err
}

// Shards returns the sorted shard numbers the node currently hosts.
func (n *ShardNode) Shards() []int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]int, 0, len(n.shards))
	for s := range n.shards {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// decodeShard decodes an RPC body into req and fetches the hosted shard
// its Shard field (at shard, inside req) names. A shard the node does
// not host reports ErrShardUnavailable: the router fails over, or
// triggers a restore.
func (n *ShardNode) decodeShard(body []byte, req any, shard *int) (*localShard, error) {
	if err := remote.DecodeBody(body, req); err != nil {
		return nil, err
	}
	n.mu.RLock()
	sh := n.shards[*shard]
	n.mu.RUnlock()
	if sh == nil {
		return nil, fmt.Errorf("temporalrank: shard %d not hosted: %w", *shard, ErrShardUnavailable)
	}
	return sh, nil
}

func (n *ShardNode) handleMeta(ctx context.Context, body []byte) (any, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	rep := rpcMetaReply{Shards: make([]rpcShardInfo, 0, len(n.shards))}
	for id, sh := range n.shards {
		rep.Shards = append(rep.Shards, rpcShardInfo{
			Shard:     id,
			NumShards: sh.meta.NumShards,
			NumSeries: sh.meta.NumSeries,
			Version:   sh.planner.DataVersion(),
			Method:    sh.primaryMethod(),
		})
	}
	sort.Slice(rep.Shards, func(i, j int) bool { return rep.Shards[i].Shard < rep.Shards[j].Shard })
	return rep, nil
}

func (n *ShardNode) handleRouting(ctx context.Context, body []byte) (any, error) {
	var req rpcShardReq
	sh, err := n.decodeShard(body, &req, &req.Shard)
	if err != nil {
		return nil, err
	}
	return rpcRoutingReply{Global: sh.meta.Global}, nil
}

func (n *ShardNode) handleQuery(ctx context.Context, body []byte) (any, error) {
	var req rpcQueryReq
	sh, err := n.decodeShard(body, &req, &req.Shard)
	if err != nil {
		return nil, err
	}
	ans, err := sh.run(ctx, req.Query)
	if err != nil {
		return nil, err
	}
	return rpcQueryReply{Answer: ans}, nil
}

func (n *ShardNode) handleAppend(ctx context.Context, body []byte) (any, error) {
	var req rpcAppendReq
	sh, err := n.decodeShard(body, &req, &req.Shard)
	if err != nil {
		return nil, err
	}
	if err := sh.append(req.ID, req.T, req.V); err != nil {
		return nil, err
	}
	return rpcAppendReply{Version: sh.planner.DataVersion()}, nil
}

func (n *ShardNode) handleScore(ctx context.Context, body []byte) (any, error) {
	var req rpcScoreReq
	sh, err := n.decodeShard(body, &req, &req.Shard)
	if err != nil {
		return nil, err
	}
	score, err := sh.score(req.ID, req.T1, req.T2)
	if err != nil {
		return nil, err
	}
	return rpcScoreReply{Score: score}, nil
}

func (n *ShardNode) handleCheckpoint(ctx context.Context, body []byte) (any, error) {
	var req rpcShardReq
	sh, err := n.decodeShard(body, &req, &req.Shard)
	if err != nil {
		return nil, err
	}
	if err := commitSnapshotFile(shardSnapshotPath(n.dir, req.Shard), sh.planner, sh.meta); err != nil {
		return nil, fmt.Errorf("temporalrank: checkpoint shard %d: %w", req.Shard, err)
	}
	return rpcAppendReply{Version: sh.planner.DataVersion()}, nil
}

// handleSnapshot streams one hosted shard's full stack: a point-in-time
// checkpoint onto a fresh in-memory device, whose raw page image is
// written to the stream. The receiving side replays it with
// snapshot.ReadDevicePages + the ordinary snapshot restore.
func (n *ShardNode) handleSnapshot(ctx context.Context, body []byte, w io.Writer) error {
	var req rpcShardReq
	sh, err := n.decodeShard(body, &req, &req.Shard)
	if err != nil {
		return err
	}
	mem := blockio.NewMemDevice(blockio.DefaultBlockSize)
	if err := sh.planner.checkpointWith(mem, sh.meta); err != nil {
		return fmt.Errorf("temporalrank: snapshot shard %d: %w", req.Shard, err)
	}
	return snapshot.WriteDevicePages(w, mem)
}

// handleRestore (re)bootstraps one shard: pull the peer's streamed
// snapshot, restore it in memory, install it over whatever this node
// had for the shard, and persist it under dir so the next boot starts
// caught-up. The router calls this on a lagging or empty replica while
// holding its append lock, so the installed shard is exactly as
// current as the peer's.
func (n *ShardNode) handleRestore(ctx context.Context, body []byte) (any, error) {
	var req rpcRestoreReq
	if err := remote.DecodeBody(body, &req); err != nil {
		return nil, err
	}
	rc, err := n.client.CallStream(ctx, req.From, "snapshot", rpcShardReq{Shard: req.Shard})
	if err != nil {
		return nil, fmt.Errorf("temporalrank: restore shard %d from %s: %w", req.Shard, req.From, err)
	}
	mem, err := snapshot.ReadDevicePages(rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("temporalrank: restore shard %d from %s: %w", req.Shard, req.From, err)
	}
	p, sm, err := openSnapshotStore(mem)
	if err != nil {
		return nil, fmt.Errorf("temporalrank: restore shard %d from %s: %w", req.Shard, req.From, err)
	}
	if sm == nil || sm.Shard != req.Shard {
		return nil, fmt.Errorf("temporalrank: peer %s streamed the wrong shard: %w", req.From, ErrBadSnapshot)
	}
	sh, err := newLocalShard(p, sm, n.opts.Memtable)
	if err != nil {
		return nil, fmt.Errorf("temporalrank: restore shard %d: %w", req.Shard, err)
	}
	if err := commitSnapshotFile(shardSnapshotPath(n.dir, req.Shard), p, sm); err != nil {
		return nil, fmt.Errorf("temporalrank: restore shard %d: persist: %w", req.Shard, err)
	}
	n.mu.Lock()
	n.shards[req.Shard] = sh
	n.mu.Unlock()
	return rpcAppendReply{Version: p.DataVersion()}, nil
}
