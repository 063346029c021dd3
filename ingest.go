package temporalrank

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"temporalrank/internal/memtable"
	"temporalrank/internal/qcache"
	"temporalrank/internal/scatter"
	"temporalrank/internal/topk"
	"temporalrank/internal/tsdata"
)

// baseStack is one immutable generation's read stack: the compacted
// database plus the indexes built over it. It is the B of the
// memtable layer's Gen[B].
type baseStack struct {
	db      *DB
	indexes []*Index
}

// MemtableOptions configures the planner's write-optimized ingest
// path (EnableMemtable).
type MemtableOptions struct {
	// FlushSegments triggers a background compaction once the active
	// memtable holds this many segments (<= 0 selects 4096).
	FlushSegments int
	// Stripes is the memtable's lock-stripe count, rounded up to a
	// power of two (<= 0 selects the default, 16).
	Stripes int
	// DisableAutoCompact turns the background trigger off; the memtable
	// then drains only through explicit Planner.Compact calls (or a
	// Checkpoint, which compacts first). Meant for tests and benchmarks
	// that schedule compaction deterministically.
	DisableAutoCompact bool
}

// MemtableStats describes the ingest path's current state.
type MemtableStats struct {
	// ActiveSegments / ActiveSeries are the segment and distinct-series
	// counts of the table currently taking writes.
	ActiveSegments int64
	ActiveSeries   int
	// FrozenSegments is the size of the table a compaction is draining
	// (0 when none is in flight).
	FrozenSegments int64
	// Generations counts completed compactions.
	Generations uint64
	// Compacting reports whether a background compaction is running.
	Compacting bool
	// LastCompaction is how long the most recent compaction ran, and
	// LastError what it failed with: nil when it succeeded, so a
	// success clears an earlier failure. Both are zero until a
	// compaction has had something to drain. A background compaction
	// has no caller to return its error to; this is where it shows.
	LastCompaction time.Duration
	LastError      error
}

// ingestState is the planner's memtable mode: a generation layer in
// front of the (now immutable) base stack, plus the scoped invalidation
// journal and compaction bookkeeping.
type ingestState struct {
	opts     MemtableOptions
	journal  *qcache.Journal
	frontier memtable.FrontierFunc
	layer    *memtable.Layer[baseStack]
	// base0 is the DB version when the memtable was enabled; the
	// planner-reported DataVersion is base0 + journal.Version(), a pure
	// append count independent of compaction timing (replicas applying
	// the same appends report the same version no matter when each
	// compacts).
	base0 uint64
	// m is the series count, fixed for the planner's lifetime (the
	// paper's update model only grows series at their frontier).
	m int

	// compactMu serializes compactions (explicit Compact calls and the
	// background trigger).
	compactMu  sync.Mutex
	compacting atomic.Bool
	gens       atomic.Uint64
	diskGen    atomic.Uint64
	// last is the most recent compaction's outcome, written by Compact
	// and read by MemtableStats. One struct type behind the pointer
	// whatever the error's concrete type.
	last atomic.Pointer[compactionOutcome]
}

// compactionOutcome is what MemtableStats reports of a compaction.
type compactionOutcome struct {
	took time.Duration
	err  error
}

// EnableMemtable switches the planner to write-optimized ingest: from
// now on Append inserts into an in-memory delta layer (lock-light,
// never touching the index structures), queries merge the delta with
// the immutable base indexes, and a background compaction periodically
// rebuilds the base from the accumulated deltas without blocking
// readers or writers.
//
// Call it after registering every index and before sharing the planner
// across goroutines; AddIndex is rejected afterwards. Appends must then
// go through Planner.Append (or Cluster.Append above it) — appending
// directly on the DB or an Index would bypass the delta layer.
func (p *Planner) EnableMemtable(opts MemtableOptions) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ingest != nil {
		return fmt.Errorf("temporalrank: memtable already enabled: %w", ErrBadConfig)
	}
	if opts.FlushSegments <= 0 {
		opts.FlushSegments = 4096
	}
	ing := &ingestState{
		opts:    opts,
		journal: qcache.NewJournal(0),
		base0:   p.db.version.Load(),
		m:       p.db.NumSeries(),
	}
	// The frontier of a series not present in the active table is its
	// end vertex in the frozen table (if a compaction holds one for it)
	// or the base dataset. Resolving through the layer keeps the chain
	// depth at two: once a compaction installs a new base, the frozen
	// table is gone and the base answers directly.
	ing.frontier = func(id int) (float64, float64, bool) {
		g := ing.layer.Load()
		if g.Frozen != nil {
			if t, v, ok := g.Frozen.Frontier(id); ok {
				return t, v, true
			}
		}
		return baseFrontier(g.Base.db, id)
	}
	ing.layer = memtable.NewLayer(&memtable.Gen[baseStack]{
		Base:   baseStack{db: p.db, indexes: append([]*Index(nil), p.indexes...)},
		Active: memtable.NewTable(ing.frontier, opts.Stripes),
	})
	p.ingest = ing
	p.journals = []*qcache.Journal{ing.journal}
	return nil
}

// baseFrontier returns the end vertex of series id in db.
func baseFrontier(db *DB, id int) (float64, float64, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if id < 0 || id >= db.ds.NumSeries() {
		return 0, 0, false
	}
	s := db.ds.Series(tsdata.SeriesID(id))
	return s.End(), s.VertexValue(s.NumSegments()), true
}

// MemtableStats returns the ingest path's current state; ok is false
// when EnableMemtable has not been called.
func (p *Planner) MemtableStats() (stats MemtableStats, ok bool) {
	p.mu.RLock()
	ing := p.ingest
	p.mu.RUnlock()
	if ing == nil {
		return MemtableStats{}, false
	}
	g := ing.layer.Load()
	stats = MemtableStats{
		ActiveSegments: g.Active.Segments(),
		ActiveSeries:   g.Active.NumSeries(),
		Generations:    ing.gens.Load(),
		Compacting:     ing.compacting.Load(),
	}
	if g.Frozen != nil {
		stats.FrozenSegments = g.Frozen.Segments()
	}
	if last := ing.last.Load(); last != nil {
		stats.LastCompaction, stats.LastError = last.took, last.err
	}
	return stats, true
}

// appendMemtable is Planner.Append in memtable mode: insert into the
// delta layer, record the scoped invalidation event, maybe kick a
// background compaction. No index or DB lock is taken.
func (p *Planner) appendMemtable(ing *ingestState, id int, t, v float64) error {
	if id < 0 || id >= ing.m {
		return fmt.Errorf("temporalrank: %w: %d", ErrUnknownSeries, id)
	}
	prev, err := ing.layer.Append(id, t, v)
	if err != nil {
		return err
	}
	// Advance strictly after the insert is visible: a concurrent lookup
	// that misses this event can only have read post-insert data, so
	// entries are at worst invalidated needlessly, never stale.
	ing.journal.Advance(qcache.Scope{Series: id, T1: prev, T2: t})
	p.maybeCompact(ing)
	return nil
}

// maybeCompact starts a background compaction when the active table
// has reached the flush threshold and none is already running.
func (p *Planner) maybeCompact(ing *ingestState) {
	if ing.opts.DisableAutoCompact {
		return
	}
	if ing.layer.Load().Active.Segments() < int64(ing.opts.FlushSegments) {
		return
	}
	if !ing.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer ing.compacting.Store(false)
		// Nobody to return the error to: Compact records its outcome
		// and MemtableStats reports it.
		_ = p.Compact(context.Background())
	}()
}

// Compact drains the memtable into a freshly built base stack: freeze
// the active table, rebuild dataset + indexes with the frozen deltas
// applied (no locks held — readers keep answering from the pinned
// generation, writers keep inserting into the new active table), then
// atomically install the new base. Returns with the memtable state
// drained of everything appended before the call began. No-op when the
// memtable is empty; an error leaves the frozen table in place to be
// retried by the next Compact.
func (p *Planner) Compact(ctx context.Context) error {
	p.mu.RLock()
	ing := p.ingest
	p.mu.RUnlock()
	if ing == nil {
		return fmt.Errorf("temporalrank: Compact without EnableMemtable: %w", ErrBadConfig)
	}
	ing.compactMu.Lock()
	defer ing.compactMu.Unlock()

	g := ing.layer.Update(func(old *memtable.Gen[baseStack]) *memtable.Gen[baseStack] {
		if old.Frozen != nil {
			// A previous attempt failed after freezing; drain that first.
			return old
		}
		if old.Active.Segments() == 0 {
			return old
		}
		return &memtable.Gen[baseStack]{
			Base:   old.Base,
			Frozen: old.Active,
			Active: memtable.NewTable(ing.frontier, ing.opts.Stripes),
		}
	})
	if g.Frozen == nil {
		return nil
	}
	start := time.Now()
	newBase, err := rebuildBase(ctx, ing, g.Base, g.Frozen)
	ing.last.Store(&compactionOutcome{took: time.Since(start), err: err})
	if err != nil {
		return err
	}
	ing.layer.Update(func(old *memtable.Gen[baseStack]) *memtable.Gen[baseStack] {
		return &memtable.Gen[baseStack]{Base: newBase, Active: old.Active}
	})
	ing.gens.Add(1)
	return nil
}

// rebuildBase builds the next generation's base stack: a snapshot of
// the old dataset with the frozen deltas applied, and an index per old
// index rebuilt over it with the same build options (the existing build
// machinery — no incremental index surgery). Runs without any planner,
// DB, or index locks.
func rebuildBase(ctx context.Context, ing *ingestState, base baseStack, frozen *memtable.Table) (baseStack, error) {
	ds := base.db.Snapshot()
	var applied uint64
	var err error
	frozen.All(func(id int, times, values []float64) {
		if err != nil {
			return
		}
		s := ds.Series(tsdata.SeriesID(id))
		for j := range times {
			if e := s.Append(times[j], values[j]); e != nil {
				err = fmt.Errorf("temporalrank: compaction: series %d: %w", id, e)
				return
			}
			applied++
		}
	})
	if err != nil {
		return baseStack{}, err
	}
	ds.Refresh()
	db := NewDBFromDataset(ds)
	// The new base's version reflects the drained appends, so snapshot
	// manifests written from it stay consistent with the data.
	db.version.Store(base.db.version.Load() + applied)
	gen := ing.diskGen.Add(1)
	ixs := make([]*Index, len(base.indexes))
	berr := scatter.Run(ctx, len(base.indexes), runtime.GOMAXPROCS(0), func(_ context.Context, i int) error {
		opts := base.indexes[i].opts
		orig := opts.OnDiskPath
		if orig != "" {
			// Build against a per-generation file: the old index still
			// serves reads from its own file until the swap (and after,
			// for readers pinned to the old generation).
			opts.OnDiskPath = fmt.Sprintf("%s.gen%d", orig, gen)
		}
		ix, e := db.BuildIndex(opts)
		if e != nil {
			return e
		}
		// Keep the un-suffixed path in opts so the next rotation derives
		// generation names from the same stem.
		ix.opts.OnDiskPath = orig
		ixs[i] = ix
		return nil
	})
	if berr != nil {
		return baseStack{}, berr
	}
	return baseStack{db: db, indexes: ixs}, nil
}

// execute answers q against the current state: straight through the
// base planner when no memtable (or an empty one) is in play, otherwise
// by merging memtable deltas with a base answer.
func (p *Planner) execute(ctx context.Context, q Query, ing *ingestState) (Answer, error) {
	if ing == nil {
		return p.Plan(q).Run(ctx, q)
	}
	g := ing.layer.Load()
	if (g.Frozen == nil || g.Frozen.Segments() == 0) && g.Active.Segments() == 0 {
		return planStack(g.Base, q).Run(ctx, q)
	}
	return runMerged(ctx, q, g)
}

// runMerged answers q from a pinned generation: find the affected set
// (series whose memtable runs overlap the window), answer top-(k+|A|)
// from the base, then rank base candidates and affected series together
// using their true scores (base + delta).
//
// Correctness of the expansion: an unaffected series outside the base
// top-(k+|A|) is dominated by at least k+|A| base candidates, of which
// at least k are themselves unaffected (score unchanged) — so it can
// never enter the true top-k, and the candidate set is sufficient. For
// approximate base methods the (ε,α) guarantee carries over: affected
// candidates get exact scores, unaffected ones keep the base method's
// bounds.
func runMerged(ctx context.Context, q Query, g *memtable.Gen[baseStack]) (Answer, error) {
	start := time.Now()
	instant := q.Agg == AggInstant
	var affected map[int]float64
	collect := func(id int, x float64) {
		if affected == nil {
			affected = make(map[int]float64, 16)
		}
		if instant {
			// The frozen and active runs of a series cover disjoint
			// consecutive domains, so exactly one table reports the
			// instant.
			affected[id] = x
		} else {
			affected[id] += x
		}
	}
	if instant {
		if g.Frozen != nil {
			g.Frozen.CollectAt(q.T1, collect)
		}
		g.Active.CollectAt(q.T1, collect)
	} else {
		if g.Frozen != nil {
			g.Frozen.CollectRange(q.T1, q.T2, collect)
		}
		g.Active.CollectRange(q.T1, q.T2, collect)
	}
	if len(affected) == 0 {
		return planStack(g.Base, q).Run(ctx, q)
	}

	qb := q
	qb.K = q.K + len(affected)
	if m := g.Base.db.NumSeries(); qb.K > m {
		qb.K = m
	}
	base, err := planStack(g.Base, qb).Run(ctx, qb)
	if err != nil {
		return Answer{}, err
	}

	cand := make(map[int]float64, len(base.Results)+len(affected))
	for _, r := range base.Results {
		cand[r.ID] = r.Score
	}
	for id, x := range affected {
		switch {
		case instant:
			// The run covers the instant, which is past the base domain
			// for this series (runs start at the base frontier), so the
			// memtable value is the value.
			cand[id] = x
		default:
			bs, serr := g.Base.db.Score(id, q.T1, q.T2)
			if serr != nil {
				return Answer{}, serr
			}
			if q.Agg == AggAvg {
				cand[id] = (bs + x) / (q.T2 - q.T1)
			} else {
				cand[id] = bs + x
			}
		}
	}

	col := topk.GetCollector(q.K)
	for id, s := range cand {
		col.Add(tsdata.SeriesID(id), s)
	}
	res := toResults(col.Results())
	col.Release()
	return Answer{
		Results: res,
		Method:  base.Method,
		Exact:   base.Exact,
		Epsilon: base.Epsilon,
		IOs:     base.IOs,
		Latency: time.Since(start),
	}, nil
}

// DataVersion returns the planner's append counter: the DB's version
// in the default mode, or the memtable journal's logical append count
// on top of the version at EnableMemtable time. It is a pure function
// of the applied appends — compaction timing does not move it — so
// replicas that applied the same appends always agree.
func (p *Planner) DataVersion() uint64 {
	p.mu.RLock()
	ing := p.ingest
	p.mu.RUnlock()
	if ing == nil {
		return p.db.version.Load()
	}
	return ing.base0 + ing.journal.Version()
}

// Score returns the planner's estimate of σ_i(t1,t2) from the primary
// index (or the DB without one), plus any memtable delta in memtable
// mode.
func (p *Planner) Score(id int, t1, t2 float64) (float64, error) {
	p.mu.RLock()
	ing := p.ingest
	db, ixs := p.db, p.indexes
	p.mu.RUnlock()
	if ing == nil {
		if len(ixs) > 0 {
			return ixs[0].Score(id, t1, t2)
		}
		return db.Score(id, t1, t2)
	}
	g := ing.layer.Load()
	var base float64
	var err error
	if len(g.Base.indexes) > 0 {
		base, err = g.Base.indexes[0].Score(id, t1, t2)
	} else {
		base, err = g.Base.db.Score(id, t1, t2)
	}
	if err != nil {
		return 0, err
	}
	d := g.Active.Delta(id, t1, t2)
	if g.Frozen != nil {
		d += g.Frozen.Delta(id, t1, t2)
	}
	return base + d, nil
}

// journalRef returns the journal Run validates cache entries against:
// the memtable journal in memtable mode, the DB's otherwise.
func (p *Planner) journalRef() *qcache.Journal {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.ingest != nil {
		return p.ingest.journal
	}
	return p.db.journal
}
