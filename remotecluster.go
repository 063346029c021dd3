package temporalrank

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"temporalrank/internal/remote"
	"temporalrank/internal/scatter"
)

// RemoteCluster is the distributed Querier: the router half of the
// serving tier. Series are placed over N shard groups exactly as in
// the in-process Cluster (the placement is fixed by the snapshots the
// shard nodes restored); each group is served by R replica addresses,
// any one of which can answer a read. A query scatters over the
// groups, each group answers from the first of its live replicas
// (tried in rotated order) that responds, and the per-group top-k
// lists — already in global IDs — k-way merge through the same
// coordinator as the in-process Cluster (coordinator.go), so a
// RemoteCluster answers bit-identically to a single node over the same
// data. RemoteCluster adds what is remote: topology discovery, replica
// health, and checkpoints on the nodes.
//
// Failure semantics:
//
//   - A transport failure (dead connection, unreachable host) marks the
//     replica Down and the read fails over to the next live replica; the
//     query succeeds as long as one replica per group answers.
//   - An application error (bad query, unknown series) is returned
//     as-is: every replica would answer the same, so no failover.
//   - A group with no answering replica fails the query with a typed
//     ErrShardUnavailable.
//   - Appends go to the group's primary (first live replica) and are
//     replayed synchronously to the other live replicas; a follower that
//     fails or diverges is marked for resync and stops serving reads
//     until the health loop re-bootstraps it from the primary's streamed
//     snapshot (ShardNode "restore"), after which it serves again —
//     bit-identical, since the snapshot carries the full stack.
//
// RemoteCluster is safe for concurrent use.
type RemoteCluster struct {
	coordinator
	client *remote.Client
	groups []*remoteGroup

	stop    chan struct{}
	healthW sync.WaitGroup
	closed  atomic.Bool
}

// ReplicaState is one replica's health as the router sees it.
type ReplicaState int32

const (
	// ReplicaLive serves reads and replicated appends.
	ReplicaLive ReplicaState = iota
	// ReplicaSyncing is reachable but lagging or missing its shard; it
	// serves nothing until the health loop re-bootstraps it.
	ReplicaSyncing
	// ReplicaDown is unreachable.
	ReplicaDown
)

func (s ReplicaState) String() string {
	switch s {
	case ReplicaLive:
		return "live"
	case ReplicaSyncing:
		return "syncing"
	default:
		return "down"
	}
}

// remoteReplica is one replica address plus its health state.
type remoteReplica struct {
	addr  string
	state atomic.Int32
}

func (r *remoteReplica) load() ReplicaState   { return ReplicaState(r.state.Load()) }
func (r *remoteReplica) store(s ReplicaState) { r.state.Store(int32(s)) }

// remoteGroup is one shard's replica set, read through its live
// replicas in rotated order.
type remoteGroup struct {
	shard    int
	client   *remote.Client
	callTO   time.Duration // see RemoteClusterOptions.CallTimeout
	replicas []*remoteReplica
	// appendMu serializes appends and resyncs within the group: appends
	// replay synchronously to every live replica under it, and a resync
	// holds it for the snapshot transfer, so a re-bootstrapped replica
	// is exactly as current as its source when it goes live.
	appendMu sync.Mutex
	// next rotates the read start across replicas for load spread.
	next atomic.Uint32
}

// liveReplicas snapshots the group's currently-live replicas, rotated
// so consecutive reads start at different replicas.
func (g *remoteGroup) liveReplicas() []*remoteReplica {
	live := make([]*remoteReplica, 0, len(g.replicas))
	start := int(g.next.Add(1)) % len(g.replicas)
	for i := 0; i < len(g.replicas); i++ {
		r := g.replicas[(start+i)%len(g.replicas)]
		if r.load() == ReplicaLive {
			live = append(live, r)
		}
	}
	return live
}

// RemoteClusterOptions configures NewRemoteCluster.
type RemoteClusterOptions struct {
	// HealthInterval is the period of the background health sweep that
	// probes replicas and re-bootstraps lagging ones. 0 selects the 1s
	// default; a negative value disables the loop (HealthCheck can
	// still be driven manually).
	HealthInterval time.Duration
	// CallTimeout bounds RPCs issued by methods without a caller
	// context (Append, Score). 0 leaves the Client's own guard (10s).
	CallTimeout time.Duration
}

// NewRemoteCluster connects to the given shard groups — groups[i]
// lists the replica addresses serving shard i — probes the topology,
// and returns a ready Querier. At least one replica per group must be
// reachable and hosting its shard; the others may be down or empty
// (they are marked for re-bootstrap by the health loop). The global
// series placement is read from the replicas' shard manifests and
// validated exhaustively: every series must be owned by exactly one
// group, and every replica must agree on the cluster shape.
func NewRemoteCluster(groups [][]string, opts RemoteClusterOptions) (*RemoteCluster, error) {
	return NewRemoteClusterContext(context.Background(), groups, opts)
}

// NewRemoteClusterContext is NewRemoteCluster with a caller context
// governing the topology probe.
func NewRemoteClusterContext(ctx context.Context, groups [][]string, opts RemoteClusterOptions) (*RemoteCluster, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("temporalrank: remote cluster needs >= 1 shard group: %w", ErrBadConfig)
	}
	c := &RemoteCluster{
		groups: make([]*remoteGroup, len(groups)),
		stop:   make(chan struct{}),
	}
	for i, addrs := range groups {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("temporalrank: shard group %d has no replicas: %w", i, ErrBadConfig)
		}
		g := &remoteGroup{shard: i, callTO: opts.CallTimeout, replicas: make([]*remoteReplica, len(addrs))}
		for j, addr := range addrs {
			if addr == "" {
				return nil, fmt.Errorf("temporalrank: shard group %d has an empty address: %w", i, ErrBadConfig)
			}
			g.replicas[j] = &remoteReplica{addr: addr}
		}
		c.groups[i] = g
	}
	c.client = remote.NewClient(remote.ClientOptions{})
	for _, g := range c.groups {
		g.client = c.client
	}
	if err := c.discover(ctx); err != nil {
		c.client.Close()
		return nil, err
	}
	interval := opts.HealthInterval
	if interval == 0 {
		interval = time.Second
	}
	if interval > 0 {
		c.healthW.Add(1)
		go c.healthLoop(interval)
	}
	return c, nil
}

// discover probes every replica, validates the cluster shape, and
// builds the coordinator over the groups: the global routing table and
// each group's primary method.
func (c *RemoteCluster) discover(ctx context.Context) error {
	numShards, numSeries := -1, -1
	routing := make([][]int, len(c.groups))
	primary := make([]Method, len(c.groups))
	for _, g := range c.groups {
		probes, err := c.probe(ctx, g)
		if err != nil {
			return err
		}
		found := false
		for _, p := range probes {
			if !p.hosting {
				p.r.store(ReplicaSyncing) // reachable, not hosting yet
				continue
			}
			r, info := p.r, p.info
			if numShards == -1 {
				numShards, numSeries = info.NumShards, info.NumSeries
			}
			if info.NumShards != numShards || info.NumSeries != numSeries {
				return fmt.Errorf("temporalrank: replica %s disagrees on cluster shape (%d/%d vs %d/%d): %w",
					r.addr, info.NumShards, info.NumSeries, numShards, numSeries, ErrBadConfig)
			}
			r.store(ReplicaLive)
			if !found {
				var rt rpcRoutingReply
				if err := c.client.Call(ctx, r.addr, "routing", rpcShardReq{Shard: g.shard}, &rt); err != nil {
					return fmt.Errorf("temporalrank: routing for shard %d from %s: %w", g.shard, r.addr, err)
				}
				routing[g.shard] = rt.Global
				primary[g.shard] = info.Method
				found = true
			}
		}
		if !found {
			return fmt.Errorf("temporalrank: no reachable replica hosts shard %d: %w", g.shard, ErrShardUnavailable)
		}
	}
	if numShards != len(c.groups) {
		return fmt.Errorf("temporalrank: snapshots describe %d shards but %d groups were given: %w",
			numShards, len(c.groups), ErrBadConfig)
	}
	shardOf, err := routeTable(numSeries, routing, ErrBadConfig)
	if err != nil {
		return err
	}
	shards := make([]shard, len(c.groups))
	for i, g := range c.groups {
		shards[i] = g
	}
	// Every group is queried at once: a group read is one RPC wait, not
	// CPU work.
	c.coordinator = coordinator{shards: shards, shardOf: shardOf, primary: primary, workers: len(c.groups)}
	return nil
}

// replicaProbe is one reachable replica's answer to a "meta" probe:
// whether it hosts the group's shard and, if so, that shard's info.
type replicaProbe struct {
	r       *remoteReplica
	hosting bool
	info    rpcShardInfo
}

// probe calls "meta" on every replica of g, marks the unreachable ones
// Down, and reports the others. A done ctx aborts the probe.
func (c *RemoteCluster) probe(ctx context.Context, g *remoteGroup) ([]replicaProbe, error) {
	probes := make([]replicaProbe, 0, len(g.replicas))
	for _, r := range g.replicas {
		var meta rpcMetaReply
		if err := c.client.Call(ctx, r.addr, "meta", nil, &meta); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			r.store(ReplicaDown)
			continue
		}
		p := replicaProbe{r: r}
		for _, info := range meta.Shards {
			if info.Shard == g.shard {
				p.hosting, p.info = true, info
			}
		}
		probes = append(probes, p)
	}
	return probes, nil
}

// Close stops the health loop and releases the RPC client.
func (c *RemoteCluster) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(c.stop)
	c.healthW.Wait()
	return c.client.Close()
}

// run answers q from one of the group's live replicas. Shard nodes
// answer in global IDs already, so the answer is merge-ready as-is.
func (g *remoteGroup) run(ctx context.Context, q Query) (Answer, error) {
	var rep rpcQueryReply
	if err := g.read(ctx, "query", rpcQueryReq{Shard: g.shard, Query: q}, &rep); err != nil {
		return Answer{}, err
	}
	return rep.Answer, nil
}

// read issues one read RPC to the group, trying its live replicas in
// rotated order, one at a time, until one answers into rep. A
// transport failure marks the replica Down and a replica not hosting
// the shard (restarted empty) is marked for re-bootstrap; both fail
// over to the next replica. Application errors are final — every
// replica would answer the same — and a done ctx wins over both.
func (g *remoteGroup) read(ctx context.Context, method string, req, rep any) error {
	var lastErr error
	for _, r := range g.liveReplicas() {
		err := g.client.CallOnce(ctx, r.addr, method, req, rep)
		if err == nil {
			return nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		switch {
		case remote.Retryable(err):
			r.store(ReplicaDown)
		case errors.Is(err, ErrShardUnavailable):
			r.store(ReplicaSyncing)
		default:
			return err
		}
		lastErr = err
	}
	return unavailable("read", g.shard, lastErr)
}

// unavailable is the error of an operation no replica of shard served:
// it wraps the last replica's error, if any, and ErrShardUnavailable.
func unavailable(op string, shard int, lastErr error) error {
	if lastErr == nil {
		return fmt.Errorf("temporalrank: %s shard %d: no live replica: %w", op, shard, ErrShardUnavailable)
	}
	return fmt.Errorf("temporalrank: %s shard %d: %w: %w", op, shard, lastErr, ErrShardUnavailable)
}

// append applies the segment on the group's primary (its first live
// replica) and replays it synchronously to the group's other live
// replicas, so any live replica serves reads that include it. A
// follower that fails the replay or diverges is marked for resync and
// stops serving until the health loop re-bootstraps it.
func (g *remoteGroup) append(id int, t, v float64) error {
	g.appendMu.Lock()
	defer g.appendMu.Unlock()
	ctx, cancel := g.callCtx()
	defer cancel()
	req := rpcAppendReq{Shard: g.shard, ID: id, T: t, V: v}
	var (
		primary *remoteReplica
		prep    rpcAppendReply
		lastErr error
	)
	for _, r := range g.replicas {
		if r.load() != ReplicaLive {
			continue
		}
		var rep rpcAppendReply
		// CallOnce: an append is not idempotent, so a transport failure
		// is never retried transparently — the replica is marked for
		// resync instead, which converges it whether or not the lost
		// call applied.
		err := g.client.CallOnce(ctx, r.addr, "append", req, &rep)
		if primary == nil {
			switch {
			case err == nil:
				primary, prep = r, rep
			case remote.Retryable(err):
				r.store(ReplicaDown)
				lastErr = err
			case errors.Is(err, ErrShardUnavailable):
				r.store(ReplicaSyncing)
				lastErr = err
			default:
				return err // validation failure: nothing was applied
			}
			continue
		}
		// Follower replay: any failure or version divergence demotes the
		// follower until it re-bootstraps from the primary.
		if err != nil || rep.Version != prep.Version {
			if err != nil && remote.Retryable(err) {
				r.store(ReplicaDown)
			} else {
				r.store(ReplicaSyncing)
			}
		}
	}
	if primary == nil {
		return unavailable("append to", g.shard, lastErr)
	}
	return nil
}

// score answers from the group's live replicas in rotated order, with
// transport failover.
func (g *remoteGroup) score(id int, t1, t2 float64) (float64, error) {
	ctx, cancel := g.callCtx()
	defer cancel()
	var rep rpcScoreReply
	if err := g.read(ctx, "score", rpcScoreReq{Shard: g.shard, ID: id, T1: t1, T2: t2}, &rep); err != nil {
		return 0, err
	}
	return rep.Score, nil
}

// Checkpoint asks every reachable replica to persist its hosted shard
// back to its own data directory (atomically, temp+rename). Groups
// checkpoint in parallel; the first failure wins.
func (c *RemoteCluster) Checkpoint(ctx context.Context) error {
	return scatter.Run(ctx, len(c.groups), len(c.groups), func(ctx context.Context, i int) error {
		g := c.groups[i]
		persisted := false
		var lastErr error
		for _, r := range g.replicas {
			if r.load() != ReplicaLive {
				continue
			}
			if err := c.client.Call(ctx, r.addr, "checkpoint", rpcShardReq{Shard: g.shard}, nil); err != nil {
				lastErr = err
				continue
			}
			persisted = true
		}
		if !persisted {
			return unavailable("checkpoint", g.shard, lastErr)
		}
		return nil
	})
}

// callCtx builds the context for RPCs issued by methods without a
// caller context (append, score).
func (g *remoteGroup) callCtx() (context.Context, context.CancelFunc) {
	if g.callTO > 0 {
		return context.WithTimeout(context.Background(), g.callTO)
	}
	return context.WithCancel(context.Background())
}

// healthLoop drives periodic HealthChecks until Close.
func (c *RemoteCluster) healthLoop(interval time.Duration) {
	defer c.healthW.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			_ = c.HealthCheck(context.Background())
		}
	}
}

// HealthCheck probes every replica once and repairs what it can: an
// unreachable replica is marked Down, a reachable one that lags or
// lost its shard is re-bootstrapped from the group's most current
// replica (streamed snapshot transfer) and goes Live again. The check
// holds each group's append lock during its repair, so a re-bootstrapped
// replica is exactly as current as its source. It returns an error
// wrapping ErrShardUnavailable if any group finishes with no live
// replica. The background loop calls this periodically; tests and
// operators can drive it directly for deterministic recovery.
func (c *RemoteCluster) HealthCheck(ctx context.Context) error {
	var firstErr error
	for _, g := range c.groups {
		if err := c.checkGroup(ctx, g); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return firstErr
}

// checkGroup probes and repairs one group under its append lock.
func (c *RemoteCluster) checkGroup(ctx context.Context, g *remoteGroup) error {
	g.appendMu.Lock()
	defer g.appendMu.Unlock()
	probes, err := c.probe(ctx, g)
	if err != nil {
		return err
	}
	var best *replicaProbe
	for i, p := range probes {
		if p.hosting && (best == nil || p.info.Version > best.info.Version) {
			best = &probes[i]
		}
	}
	if best == nil {
		// No reachable replica holds the shard: nothing to repair from.
		for _, p := range probes {
			p.r.store(ReplicaSyncing)
		}
		return unavailable("repair", g.shard, nil)
	}
	best.r.store(ReplicaLive)
	for i := range probes {
		p := &probes[i]
		if p.r == best.r {
			continue
		}
		if p.hosting && p.info.Version == best.info.Version {
			p.r.store(ReplicaLive)
			continue
		}
		// Lagging or empty: pull a fresh snapshot from the best replica.
		// The append lock is held, so the transferred state is final.
		var rep rpcAppendReply
		if err := c.client.Call(ctx, p.r.addr, "restore", rpcRestoreReq{Shard: g.shard, From: best.r.addr}, &rep); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			p.r.store(ReplicaSyncing)
			continue
		}
		if rep.Version == best.info.Version {
			p.r.store(ReplicaLive)
		} else {
			p.r.store(ReplicaSyncing)
		}
	}
	return nil
}

// GroupHealth reports one shard group's replica states.
type GroupHealth struct {
	Shard    int
	Replicas []ReplicaHealth
}

// ReplicaHealth is one replica's address and current state.
type ReplicaHealth struct {
	Addr  string
	State string
}

// Health snapshots the router's view of every replica.
func (c *RemoteCluster) Health() []GroupHealth {
	out := make([]GroupHealth, len(c.groups))
	for i, g := range c.groups {
		gh := GroupHealth{Shard: g.shard, Replicas: make([]ReplicaHealth, len(g.replicas))}
		for j, r := range g.replicas {
			gh.Replicas[j] = ReplicaHealth{Addr: r.addr, State: r.load().String()}
		}
		out[i] = gh
	}
	return out
}
