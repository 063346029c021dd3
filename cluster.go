package temporalrank

import (
	"context"
	"fmt"
	"runtime"

	"temporalrank/internal/qcache"
	"temporalrank/internal/scatter"
)

// Cluster is the scale-out Querier: it hash-partitions series across N
// shards — each shard an independent DB with its own indexes, Planner,
// and blockio device — and answers a Query by scattering per-shard Runs
// over a bounded worker pool, then k-way merging the per-shard top-k
// answers. Because the paper's query family top-k(t1, t2, agg)
// decomposes over disjoint object partitions, the merged answer is
// exactly what a single node over the whole dataset would produce, down
// to tie order (equal scores break by ascending global series ID).
//
// Answer semantics of a cluster Run (see also MethodMixed):
//
//   - Results carry global series IDs, merged deterministically.
//   - Exact is true only when every shard answered exactly.
//   - Epsilon is the worst (maximum) shard ε — the sound bound for the
//     merged set, since each score is off by at most its own shard's ε.
//   - IOs sums the shards' answers' IOs, each the count of that
//     shard's own index calls, so neither one query's shards nor two
//     concurrent queries on one shard cross-attribute each other's IOs.
//   - Latency is the slowest shard's computation time (the critical
//     path of the scatter), not the sum.
//   - Method is the shards' common method, or MethodMixed when the
//     per-shard planners routed differently.
//
// Query.MaxEpsilon is a routing hint applied by each shard's planner
// independently: it bounds every shard's ε, hence the merged ε.
//
// Ingest is sharded the same way: Append routes one segment to its
// owning shard, whose Planner.Append buffers it in that shard's
// memtable.
//
// Run, Append, Score and the routing come from the coordinator a
// RemoteCluster shares (coordinator.go); Cluster adds what is local:
// the shard stacks, their stats and the on-disk checkpoint.
//
// Cluster is safe for concurrent use; its shards inherit the Planner's
// rules.
type Cluster struct {
	coordinator
	// locals are the per-shard stacks the coordinator scatters over, nil
	// for an empty shard, typed for the local-only accessors. Immutable
	// after construction.
	locals []*localShard
}

// MethodMixed marks a cluster Answer whose shards answered with
// different methods (for example, one shard's planner routed to an
// approximate index while another fell back to brute force).
const MethodMixed Method = "MIXED"

// ClusterOptions configures NewCluster and friends.
type ClusterOptions struct {
	// Shards is the number of partitions (default 1).
	Shards int
	// Indexes is the index set built on every shard, in Planner
	// registration order. Empty means brute-force shards (every query
	// answered by the shard DB's reference scan).
	Indexes []Options
	// ResultCache, when > 0, attaches a result cache of that many
	// entries to Run: repeated identical queries are answered from the
	// stored merged answer, and concurrent identical queries coalesce
	// into one scatter. Appends on any shard invalidate exactly the
	// cached answers whose query window overlaps the appended segment
	// (scoped invalidation), so cached answers are never stale.
	// 0 disables caching.
	ResultCache int
	// Memtable sets the options of every shard planner's memtable (see
	// Planner.EnableMemtable), which every append lands in before
	// background compaction rebuilds the shard's indexes. nil keeps the
	// defaults.
	Memtable *MemtableOptions
}

// NewCluster validates and assembles a sharded database from raw
// series. The slice index of each series is its global ID, exactly as
// in NewDB — a Cluster built from the same series as a DB answers
// queries with the same IDs.
func NewCluster(series []SeriesInput, opts ClusterOptions) (*Cluster, error) {
	return NewClusterContext(context.Background(), series, opts)
}

// NewClusterContext is NewCluster with a caller-supplied context
// governing the parallel shard and index builds: cancel it and the
// in-flight build tasks finish, queued ones are skipped, and the
// context's error is returned.
func NewClusterContext(ctx context.Context, series []SeriesInput, opts ClusterOptions) (*Cluster, error) {
	n := opts.Shards
	if n == 0 {
		n = 1
	}
	if n < 1 {
		return nil, fmt.Errorf("temporalrank: cluster needs >= 1 shard, got %d: %w", n, ErrBadConfig)
	}
	if len(series) == 0 {
		return nil, fmt.Errorf("temporalrank: no series given: %w", ErrNoInput)
	}
	// Series are routed in global-ID order, so every shard's global-ID
	// list comes out ascending.
	globals := make([][]int, n)
	inputs := make([][]SeriesInput, n)
	for id, in := range series {
		s := hashPartition(id, n)
		globals[s] = append(globals[s], id)
		inputs[s] = append(inputs[s], in)
	}
	// Phase 1: shard DBs, in parallel. Each task writes only its own
	// shard slot; an empty shard (fewer series than shards) keeps a nil
	// DB.
	dbs := make([]*DB, n)
	err := scatter.Run(ctx, n, runtime.GOMAXPROCS(0), func(_ context.Context, i int) error {
		if len(inputs[i]) == 0 {
			return nil
		}
		db, err := NewDB(inputs[i])
		if err != nil {
			return fmt.Errorf("temporalrank: cluster shard %d: %w", i, err)
		}
		dbs[i] = db
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Phase 2: every (shard, index) build as one flat parallel batch, so
	// a single-shard multi-index cluster builds as concurrently as a
	// many-shard one.
	type buildJob struct{ shard, opt int }
	var jobs []buildJob
	indexes := make([][]*Index, n)
	for i, db := range dbs {
		if db == nil {
			continue
		}
		indexes[i] = make([]*Index, len(opts.Indexes))
		for j := range opts.Indexes {
			jobs = append(jobs, buildJob{shard: i, opt: j})
		}
	}
	err = scatter.Run(ctx, len(jobs), runtime.GOMAXPROCS(0), func(_ context.Context, j int) error {
		b := jobs[j]
		ix, err := dbs[b.shard].BuildIndex(opts.Indexes[b.opt])
		if err != nil {
			return fmt.Errorf("temporalrank: cluster shard %d index %q: %w", b.shard, opts.Indexes[b.opt].Method, err)
		}
		indexes[b.shard][b.opt] = ix
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Phase 3: one planner per shard routes exactly like a single node.
	locals := make([]*localShard, n)
	for i, db := range dbs {
		if db == nil {
			continue
		}
		p, err := NewPlanner(db, indexes[i]...)
		if err != nil {
			return nil, fmt.Errorf("temporalrank: cluster shard %d: %w", i, err)
		}
		sm := &shardManifest{Shard: i, NumShards: n, NumSeries: len(series), Global: globals[i]}
		if locals[i], err = newLocalShard(p, sm, opts.Memtable); err != nil {
			return nil, err
		}
	}
	return assembleCluster(locals, len(series), opts, ErrBadConfig)
}

// assembleCluster builds a Cluster over its per-shard stacks (nil for an
// empty shard), routing by their manifests' global-ID lists; a routing
// violation wraps sentinel. Of opts only ResultCache applies here. One
// Run queries up to GOMAXPROCS shards at once (the coordinator's zero
// workers): in-process shards are CPU work, like the build, restore and
// compaction scatters.
func assembleCluster(locals []*localShard, numSeries int, opts ClusterOptions, sentinel error) (*Cluster, error) {
	c := &Cluster{locals: locals}
	c.shards = make([]shard, len(locals))
	c.primary = make([]Method, len(locals))
	globals := make([][]int, len(locals))
	for i, sh := range locals {
		if sh == nil {
			continue
		}
		c.shards[i] = sh
		c.primary[i] = sh.primaryMethod()
		globals[i] = sh.meta.Global
		c.journals = append(c.journals, sh.planner.ingest.journal)
	}
	var err error
	if c.shardOf, err = routeTable(numSeries, globals, sentinel); err != nil {
		return nil, err
	}
	if opts.ResultCache > 0 {
		c.cache = qcache.New[queryKey, Answer](opts.ResultCache)
	}
	return c, nil
}

// NewClusterFromSamples builds a sharded database from raw per-object
// samples, applying the chosen segmentation before partitioning — the
// sharded counterpart of NewDBFromSamples.
func NewClusterFromSamples(objects [][]Sample, method SegmentationMethod, errBudget float64, opts ClusterOptions) (*Cluster, error) {
	return NewClusterFromSamplesContext(context.Background(), objects, method, errBudget, opts)
}

// NewClusterFromSamplesContext is NewClusterFromSamples with a
// caller-supplied context governing the parallel build phases.
func NewClusterFromSamplesContext(ctx context.Context, objects [][]Sample, method SegmentationMethod, errBudget float64, opts ClusterOptions) (*Cluster, error) {
	inputs, err := segmentObjects(objects, method, errBudget)
	if err != nil {
		return nil, err
	}
	return NewClusterContext(ctx, inputs, opts)
}

// NewClusterFromDB re-partitions an existing single-node database into
// a cluster (the rankserver -shards path: load once, shard at startup).
// The cluster copies the DB's current data; later appends to either
// side do not propagate to the other.
func NewClusterFromDB(db *DB, opts ClusterOptions) (*Cluster, error) {
	return NewClusterFromDBContext(context.Background(), db, opts)
}

// NewClusterFromDBContext is NewClusterFromDB with a caller-supplied
// context governing the parallel build phases.
func NewClusterFromDBContext(ctx context.Context, db *DB, opts ClusterOptions) (*Cluster, error) {
	// Copy the vertices out under the read lock directly — no
	// intermediate Snapshot clone, so peak memory is the copy itself.
	db.mu.RLock()
	series := make([]SeriesInput, db.ds.NumSeries())
	for i, s := range db.ds.AllSeries() {
		nv := s.NumSegments() + 1
		times := make([]float64, nv)
		values := make([]float64, nv)
		for j := 0; j < nv; j++ {
			times[j] = s.VertexTime(j)
			values[j] = s.VertexValue(j)
		}
		series[i] = SeriesInput{Times: times, Values: values}
	}
	db.mu.RUnlock()
	return NewClusterContext(ctx, series, opts)
}

// NumSegments returns the global segment count N of the compacted
// bases: segments still in a memtable are counted after their
// compaction.
func (c *Cluster) NumSegments() int {
	total := 0
	for _, sh := range c.locals {
		if sh != nil {
			total += sh.planner.DB().NumSegments()
		}
	}
	return total
}

// Start returns the left end of the global temporal domain.
func (c *Cluster) Start() float64 {
	start, _ := c.domain()
	return start
}

// End returns the right end of the global temporal domain of the
// compacted bases.
func (c *Cluster) End() float64 {
	_, end := c.domain()
	return end
}

// domain spans the non-empty shards' temporal domains.
func (c *Cluster) domain() (start, end float64) {
	set := false
	for _, sh := range c.locals {
		if sh == nil {
			continue
		}
		db := sh.planner.DB()
		if s, e := db.Start(), db.End(); !set {
			start, end, set = s, e, true
		} else {
			start, end = min(start, s), max(end, e)
		}
	}
	return start, end
}

// Planners returns the per-shard planners, indexed by shard; entries
// are nil for empty shards. Through a planner callers reach each
// shard's DB and indexes for stats and direct queries.
func (c *Cluster) Planners() []*Planner {
	out := make([]*Planner, len(c.locals))
	for i, sh := range c.locals {
		if sh != nil {
			out[i] = sh.planner
		}
	}
	return out
}

// CacheStats returns the cluster result cache's counters; ok is false
// when ClusterOptions.ResultCache was 0.
func (c *Cluster) CacheStats() (stats CacheStats, ok bool) {
	if c.cache == nil {
		return CacheStats{}, false
	}
	s := c.cache.Stats()
	return CacheStats{Hits: s.Hits, Misses: s.Misses, Coalesced: s.Coalesced}, true
}

// ClusterStats summarizes one cluster's shape and per-shard load.
type ClusterStats struct {
	Shards   int
	Objects  int
	Segments int
	// PerShard has one entry per shard (empty shards report zeros).
	PerShard []ShardStats
}

// ShardStats is one shard's slice of the data and its index footprint.
type ShardStats struct {
	Objects  int
	Segments int
	Indexes  []Stats
}

// Stats reports the cluster's shape: how the partitioner spread the
// objects and what each shard's indexes cost.
func (c *Cluster) Stats() ClusterStats {
	out := ClusterStats{
		Shards:   len(c.locals),
		Objects:  len(c.shardOf),
		PerShard: make([]ShardStats, len(c.locals)),
	}
	for i, sh := range c.locals {
		if sh == nil {
			continue
		}
		db := sh.planner.DB()
		st := ShardStats{
			Objects:  db.NumSeries(),
			Segments: db.NumSegments(),
		}
		for _, ix := range sh.planner.Indexes() {
			st.Indexes = append(st.Indexes, ix.Stats())
		}
		out.PerShard[i] = st
		out.Segments += st.Segments
	}
	return out
}
