package temporalrank

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"temporalrank/internal/qcache"
	"temporalrank/internal/scatter"
)

// This file is the one shard coordinator under both cluster types. The
// paper's aggregate top-k ranks objects by a per-object score
// σ_i(t1,t2), so it decomposes over any disjoint partition of the
// objects and one merge rule serves every placement: a Cluster's
// in-process shards (localShard) and a RemoteCluster's replica groups
// (remoteGroup) both answer in global series IDs, and the coordinator
// caches, scatters, merges and routes over them identically. A
// ShardNode serves its RPCs through the same localShard.

// shard is one partition as the coordinator sees it. Every method
// speaks global series IDs.
type shard interface {
	// run answers q over the shard. The Answer's Results carry global
	// IDs in rank order (score descending, ties by ascending ID); they
	// may be shared with a result cache and must not be mutated.
	run(ctx context.Context, q Query) (Answer, error)
	// append extends global series id with a segment ending at (t, v).
	append(id int, t, v float64) error
	// score returns σ_id(t1,t2) from the shard's primary index.
	score(id int, t1, t2 float64) (float64, error)
}

// coordinator owns everything a cluster does across its shards: the
// scoped result cache, the scatter and deterministic merge of Run, and
// the global→shard route of Append, Score and PrimaryMethod. Every
// field is immutable after construction.
type coordinator struct {
	// shards has one entry per partition, nil for an empty one (fewer
	// series than shards).
	shards []shard
	// shardOf maps a global series ID to its shard.
	shardOf []int
	// primary is each shard's primary method: the structure its score
	// answers from.
	primary []Method
	// workers bounds how many shards one Run queries concurrently. The
	// cluster type derives it from what its shards are: 0, for
	// in-process shards, is GOMAXPROCS read at each Run, so the bound
	// follows the process's GOMAXPROCS as it changes.
	workers int
	// cache stores merged answers (nil when disabled), so a repeated
	// query skips the scatter AND the merge. Entries are validated
	// against the shards' append journals, scoped by the query's time
	// window: an append on any shard invalidates exactly the cached
	// answers whose window overlaps it.
	cache    *qcache.Cache[queryKey, Answer]
	journals []*qcache.Journal
}

// routeTable validates the shards' global-ID lists (globals[s] lists
// shard s's series, nil for an empty shard) and returns the global →
// shard table: every series in [0, numSeries) must be placed on exactly
// one shard, and each list must be strictly ascending so a shard's tie
// order (ascending local ID) is the global tie order. A violation wraps
// sentinel.
func routeTable(numSeries int, globals [][]int, sentinel error) ([]int, error) {
	shardOf := make([]int, numSeries)
	for id := range shardOf {
		shardOf[id] = -1
	}
	for s, global := range globals {
		for j, id := range global {
			if id < 0 || id >= numSeries || shardOf[id] != -1 {
				return nil, fmt.Errorf("temporalrank: shard %d routes series %d twice or out of range: %w", s, id, sentinel)
			}
			if j > 0 && global[j-1] >= id {
				return nil, fmt.Errorf("temporalrank: shard %d global-ID list not ascending at %d: %w", s, j, sentinel)
			}
			shardOf[id] = s
		}
	}
	for id, s := range shardOf {
		if s == -1 {
			return nil, fmt.Errorf("temporalrank: no shard holds series %d: %w", id, sentinel)
		}
	}
	return shardOf, nil
}

// NumShards returns the number of partitions (including empty ones).
func (c *coordinator) NumShards() int { return len(c.shards) }

// NumSeries returns the global object count m.
func (c *coordinator) NumSeries() int { return len(c.shardOf) }

// Run implements Querier by scatter-gather: every non-empty shard
// answers q (first-error-wins, context-cancellable, at most the
// configured number of shards at once), and the per-shard top-k lists
// are merged deterministically. With a result cache, repeated identical
// queries are served from the stored merged answer and concurrent
// identical queries coalesce into one scatter. See the Cluster type
// docs for the merged Answer semantics.
func (c *coordinator) Run(ctx context.Context, q Query) (Answer, error) {
	q = q.withDefaults()
	if err := q.Validate(); err != nil {
		return Answer{}, err
	}
	if c.cache == nil {
		return c.run(ctx, q)
	}
	// Journal versions are snapshotted before the scatter: an append
	// landing mid-run at worst wastes the entry (invalidated on the
	// next lookup), never serves stale data.
	ans, _, err := c.cache.DoScoped(ctx, q.cacheKey(), c.journals, q.scope(), func() (Answer, error) {
		return c.run(ctx, q)
	})
	return ans, err
}

// gather is one Run's scatter scratch: per-shard answers and the merge
// cursors. Pooled — the slices are reused across Runs with their
// backing arrays intact.
type gather struct {
	answers []Answer
	pos     []int
}

var gatherPool = sync.Pool{New: func() any { return new(gather) }}

// getGather returns a zeroed gather sized for n shards.
func getGather(n int) *gather {
	g := gatherPool.Get().(*gather)
	if cap(g.answers) < n {
		g.answers, g.pos = make([]Answer, n), make([]int, n)
	}
	g.answers, g.pos = g.answers[:n], g.pos[:n]
	clear(g.pos)
	return g
}

// putGather clears the answers (so pooled scratch does not pin
// per-query result slices) and returns g to the pool.
func putGather(g *gather) {
	clear(g.answers)
	gatherPool.Put(g)
}

// run executes one scatter-gather (the uncached Run body).
func (c *coordinator) run(ctx context.Context, q Query) (Answer, error) {
	// Single-shard fast path: the one shard holds every series and there
	// is nothing to merge, so its answer is already the cluster answer.
	if len(c.shards) == 1 {
		return c.shards[0].run(ctx, q)
	}
	g := getGather(len(c.shards))
	defer putGather(g)
	workers := c.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	err := scatter.Run(ctx, len(c.shards), workers, func(ctx context.Context, i int) error {
		sh := c.shards[i]
		if sh == nil {
			return nil
		}
		ans, err := sh.run(ctx, q)
		if err != nil {
			return err
		}
		g.answers[i] = ans
		return nil
	})
	if err != nil {
		return Answer{}, err
	}
	return c.mergeGather(q.K, g), nil
}

// mergeGather deterministically merges the answers a successful
// scatter collected in g (one per non-empty shard) into one Answer for
// k: the result lists k-way merge by score descending with ties broken
// by ascending global ID (the single-node order), Exact ANDs, Epsilon
// and Latency take the worst shard, IOs sum, and Method is the shards'
// common method or MethodMixed.
func (c *coordinator) mergeGather(k int, g *gather) Answer {
	merged := Answer{Exact: true}
	total := 0
	for i := range g.answers {
		if c.shards[i] == nil {
			continue
		}
		ans := &g.answers[i]
		if merged.Method == "" {
			merged.Method = ans.Method
		} else if merged.Method != ans.Method {
			merged.Method = MethodMixed
		}
		merged.Exact = merged.Exact && ans.Exact
		if ans.Epsilon > merged.Epsilon {
			merged.Epsilon = ans.Epsilon
		}
		merged.IOs += ans.IOs
		if ans.Latency > merged.Latency {
			merged.Latency = ans.Latency
		}
		total += len(ans.Results)
	}
	// A shard count is small, so each output slot scans the list heads
	// directly; empty shards have no results and never win.
	merged.Results = make([]Result, 0, min(k, total))
	for len(merged.Results) < k {
		best := -1
		var head Result
		for i := range g.answers {
			rs := g.answers[i].Results
			if g.pos[i] == len(rs) {
				continue
			}
			if r := rs[g.pos[i]]; best < 0 || r.Score > head.Score || (r.Score == head.Score && r.ID < head.ID) {
				best, head = i, r
			}
		}
		if best < 0 {
			break
		}
		merged.Results = append(merged.Results, head)
		g.pos[best]++
	}
	return merged
}

// Append extends global object id with a new segment ending at (t, v),
// applied on the owning shard. Shards are independent, so appends to
// different shards proceed in parallel.
func (c *coordinator) Append(id int, t, v float64) error {
	sh, err := c.route(id)
	if err != nil {
		return err
	}
	return sh.append(id, t, v)
}

// Score returns σ_id(t1,t2) as answered by the owning shard's primary
// (first-registered) index, or its DB when the shard runs index-less.
// Approximate primaries answer with their stored estimate or
// ErrNotMaterialized, exactly as Index.Score.
func (c *coordinator) Score(id int, t1, t2 float64) (float64, error) {
	sh, err := c.route(id)
	if err != nil {
		return 0, err
	}
	return sh.score(id, t1, t2)
}

// PrimaryMethod returns the method Score answers series id with: the
// owning shard's primary index method (MethodReference when that shard
// runs index-less), or MethodReference for an unknown id.
func (c *coordinator) PrimaryMethod(id int) Method {
	if id < 0 || id >= len(c.shardOf) {
		return MethodReference
	}
	return c.primary[c.shardOf[id]]
}

// route maps a global series ID to its shard.
func (c *coordinator) route(id int) (shard, error) {
	if id < 0 || id >= len(c.shardOf) {
		return nil, fmt.Errorf("temporalrank: %w: %d", ErrUnknownSeries, id)
	}
	return c.shards[c.shardOf[id]], nil
}

// localShard is one in-process partition: a Planner plus the shard
// manifest carrying its ascending global-ID list. It serves both a
// Cluster's shards and a ShardNode's hosted replicas.
type localShard struct {
	planner *Planner
	meta    *shardManifest
	// identity is true when every local ID equals its global ID (a
	// 1-shard cluster), so answers need no remap.
	identity bool
}

// newLocalShard pairs a shard's planner with its manifest, setting its
// memtable options when mt is non-nil.
func newLocalShard(p *Planner, sm *shardManifest, mt *MemtableOptions) (*localShard, error) {
	if n := p.DB().NumSeries(); len(sm.Global) != n {
		return nil, fmt.Errorf("temporalrank: shard %d routes %d series but holds %d: %w", sm.Shard, len(sm.Global), n, ErrBadSnapshot)
	}
	if mt != nil {
		if err := p.EnableMemtable(*mt); err != nil {
			return nil, fmt.Errorf("temporalrank: shard %d: %w", sm.Shard, err)
		}
	}
	sh := &localShard{planner: p, meta: sm, identity: true}
	for local, id := range sm.Global {
		if id != local {
			sh.identity = false
			break
		}
	}
	return sh, nil
}

// run answers q through the shard planner and remaps the result IDs to
// global ones.
func (s *localShard) run(ctx context.Context, q Query) (Answer, error) {
	ans, err := s.planner.Run(ctx, q)
	if err != nil {
		return Answer{}, fmt.Errorf("temporalrank: shard %d: %w", s.meta.Shard, err)
	}
	if s.identity {
		return ans, nil
	}
	// Remap into a fresh slice: ans.Results may alias the planner's
	// result cache. The global list is ascending, so the shard's tie
	// order stays the global tie order.
	global := make([]Result, len(ans.Results))
	for i, r := range ans.Results {
		global[i] = Result{ID: s.meta.Global[r.ID], Score: r.Score}
	}
	ans.Results = global
	return ans, nil
}

func (s *localShard) append(id int, t, v float64) error {
	local, err := s.local(id)
	if err != nil {
		return err
	}
	return s.planner.Append(local, t, v)
}

func (s *localShard) score(id int, t1, t2 float64) (float64, error) {
	local, err := s.local(id)
	if err != nil {
		return 0, err
	}
	return s.planner.Score(local, t1, t2)
}

// local maps a global series ID onto the shard's local ID space.
func (s *localShard) local(id int) (int, error) {
	g := s.meta.Global
	i := sort.SearchInts(g, id)
	if i >= len(g) || g[i] != id {
		return 0, fmt.Errorf("temporalrank: series %d not on shard %d: %w", id, s.meta.Shard, ErrUnknownSeries)
	}
	return i, nil
}

// primaryMethod names the structure the shard's Score answers from.
func (s *localShard) primaryMethod() Method {
	if ixs := s.planner.Indexes(); len(ixs) > 0 {
		return ixs[0].Method()
	}
	return MethodReference
}
