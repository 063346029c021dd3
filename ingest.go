package temporalrank

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"temporalrank/internal/exact"
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

// MemtableOptions configures the planner's memtable, the buffer every
// Planner.Append lands in (see EnableMemtable).
type MemtableOptions struct {
	// FlushSegments triggers a background compaction once the active
	// memtable holds this many segments (<= 0 selects 4096).
	FlushSegments int
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

// ingestState is the planner's write path: a generation layer in
// front of the immutable base stack, plus the scoped invalidation
// journal and compaction bookkeeping. NewPlanner creates it; it is
// never replaced.
type ingestState struct {
	// opts are the normalized memtable options; EnableMemtable swaps
	// them until the first append.
	opts atomic.Pointer[MemtableOptions]
	// journal records each append as a (series, time-range) scoped
	// event; journals is the one-element slice Run hands the result
	// cache, built once so the cached read path does not allocate.
	journal  *qcache.Journal
	journals []*qcache.Journal
	frontier memtable.FrontierFunc
	layer    *layer[baseStack]
	// base0 is the DB version when the planner was built; the
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

// newIngestState puts an empty memtable with default options in front
// of the base stack db + indexes.
func newIngestState(db *DB, indexes []*Index) *ingestState {
	ing := &ingestState{
		journal: qcache.NewJournal(0),
		base0:   db.version.Load(),
		m:       db.NumSeries(),
	}
	ing.journals = []*qcache.Journal{ing.journal}
	ing.opts.Store(normalizeMemtable(MemtableOptions{}))
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
	ing.layer = newLayer(&generation[baseStack]{
		Base:   baseStack{db: db, indexes: indexes},
		Active: memtable.NewTable(ing.frontier, 0),
	})
	return ing
}

// normalizeMemtable resolves the zero FlushSegments to its default.
func normalizeMemtable(opts MemtableOptions) *MemtableOptions {
	if opts.FlushSegments <= 0 {
		opts.FlushSegments = 4096
	}
	return &opts
}

// EnableMemtable sets the options of the planner's memtable. Every
// planner ingests through one: Append inserts into an in-memory delta
// layer (lock-light, never touching the index structures), queries
// merge the delta with the immutable base indexes, and a background
// compaction periodically rebuilds the base from the accumulated deltas
// without blocking readers or writers. A planner that never calls
// EnableMemtable runs the defaults.
//
// Call it before the planner takes its first append; afterwards it
// returns an error wrapping ErrBadConfig and the options stay as they
// were.
func (p *Planner) EnableMemtable(opts MemtableOptions) error {
	if p.ingest.journal.Version() != 0 {
		return fmt.Errorf("temporalrank: memtable options set after the first append: %w", ErrBadConfig)
	}
	p.ingest.opts.Store(normalizeMemtable(opts))
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

// MemtableStats returns the ingest path's current state. ok is always
// true: every planner has a memtable.
func (p *Planner) MemtableStats() (stats MemtableStats, ok bool) {
	ing := p.ingest
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

// Append extends object id with a new segment ending at (t, v); t must
// be after the object's current end (§4 update model). The segment is
// inserted into the memtable, where the next query already sees it; it
// reaches the DB and the indexes only when a compaction builds their
// successors. No index or DB lock is taken. An append may start a
// background compaction.
func (p *Planner) Append(id int, t, v float64) error {
	ing := p.ingest
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
	p.maybeCompact()
	return nil
}

// maybeCompact starts a background compaction when the active table
// has reached the flush threshold and none is already running.
func (p *Planner) maybeCompact() {
	ing := p.ingest
	opts := ing.opts.Load()
	if opts.DisableAutoCompact {
		return
	}
	if ing.layer.Load().Active.Segments() < int64(opts.FlushSegments) {
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
//
// Once the new base is installed, the files of the superseded
// generation's on-disk indexes are unlinked: readers still pinned to
// that generation keep their open descriptors, which close when the
// generation becomes unreachable.
func (p *Planner) Compact(ctx context.Context) error {
	ing := p.ingest
	ing.compactMu.Lock()
	defer ing.compactMu.Unlock()

	g := ing.layer.Update(func(old *generation[baseStack]) *generation[baseStack] {
		if old.Frozen != nil {
			// A previous attempt failed after freezing; drain that first.
			return old
		}
		if old.Active.Segments() == 0 {
			return old
		}
		return &generation[baseStack]{
			Base:   old.Base,
			Frozen: old.Active,
			Active: memtable.NewTable(ing.frontier, 0),
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
	ing.layer.Update(func(old *generation[baseStack]) *generation[baseStack] {
		return &generation[baseStack]{Base: newBase, Active: old.Active}
	})
	ing.gens.Add(1)
	for _, ix := range g.Base.indexes {
		if ix.file != "" {
			// Best effort: the compaction itself has succeeded.
			_ = os.Remove(ix.file)
		}
	}
	return nil
}

// rebuildBase builds the next generation's base stack: a snapshot of
// the old dataset with the frozen deltas applied, and an index per old
// index rebuilt over it with the existing build machinery (no
// incremental index surgery). Each index keeps its build options, with
// one exception that follows the paper's §4 update model: an
// approximate index whose ε came from a TargetR search is rebuilt at
// that same ε, one breakpoint pass instead of a search, until the new
// dataset's total mass M reaches twice the M of the last search; then
// the search runs again. Runs without any planner, DB, or index locks.
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
	mass := ds.M()
	db := NewDBFromDataset(ds)
	// The new base's version reflects the drained appends, so snapshot
	// manifests written from it stay consistent with the data.
	db.version.Store(base.db.version.Load() + applied)
	gen := ing.diskGen.Add(1)
	ixs := make([]*Index, len(base.indexes))
	files := make([]string, len(base.indexes))
	berr := scatter.Run(ctx, len(base.indexes), runtime.GOMAXPROCS(0), func(_ context.Context, i int) error {
		old := base.indexes[i]
		opts := old.opts
		fixed := old.searchR > 0 && mass < 2*old.searchM
		if fixed {
			opts.Epsilon = old.Epsilon()
		}
		if opts.OnDiskPath != "" {
			// Build against a per-generation file: the old index still
			// serves reads from its own file until the swap (and after,
			// for readers pinned to the old generation).
			opts.OnDiskPath = fmt.Sprintf("%s.gen%d", opts.OnDiskPath, gen)
			files[i] = opts.OnDiskPath
		}
		ix, e := buildIndex(db, opts)
		if e != nil {
			return e
		}
		// Keep the old options, so the next rotation derives generation
		// names from the same stem (ix.file keeps the suffix) and still
		// knows whether ε came from a search.
		ix.opts = old.opts
		if fixed {
			ix.searchM, ix.searchR = old.searchM, old.searchR
		}
		ixs[i] = ix
		return nil
	})
	if berr != nil {
		// No generation will own this attempt's files, built or partly
		// written, and a retry builds under a new generation number:
		// unlink them (best effort, as for a superseded generation).
		for _, f := range files {
			if f != "" {
				_ = os.Remove(f)
			}
		}
		return baseStack{}, berr
	}
	return baseStack{db: db, indexes: ixs}, nil
}

// buildIndex is DB.BuildIndex as rebuildBase calls it. A package
// variable so tests can count the builds that search for ε.
var buildIndex = (*DB).BuildIndex

// execute answers q against the current state: straight through the
// base stack while the memtable is empty, otherwise by merging memtable
// deltas with a base answer.
func (p *Planner) execute(ctx context.Context, q Query) (Answer, error) {
	g := p.ingest.layer.Load()
	if (g.Frozen == nil || g.Frozen.Segments() == 0) && g.Active.Segments() == 0 {
		return planStack(g.Base, q).Run(ctx, q)
	}
	return runMerged(ctx, q, g)
}

// runMerged answers q from a pinned generation whose memtable holds
// data. A sum or average whose plan is EXACT3 merges the memtable
// deltas into EXACT3's σ-vector (mergeExact3). Any other query expands:
// find the affected set A (series whose memtable runs overlap the
// window), answer top-(k+|A|) from the base, then rank base candidates
// and affected series together using their true scores (base + delta).
// When that expanded query's plan is EXACT3 (a tolerant query whose
// k+|A| exceeds every approximate index's KMax), the σ-vector merge
// answers instead.
//
// Correctness of the expansion: an unaffected series outside the base
// top-(k+|A|) is dominated by at least k+|A| base candidates, of which
// at least k are themselves unaffected (score unchanged) — so it can
// never enter the true top-k, and the candidate set is sufficient. For
// approximate base methods the (ε,α) guarantee carries over: affected
// candidates get exact scores, unaffected ones keep the base method's
// bounds.
func runMerged(ctx context.Context, q Query, g *generation[baseStack]) (Answer, error) {
	instant := q.Agg == AggInstant
	if !instant {
		if ix, e3 := exact3Plan(planStack(g.Base, q)); e3 != nil {
			return mergeExact3(ctx, q, g, ix, e3)
		}
	}
	start := time.Now()
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
	plan := planStack(g.Base, qb)
	if !instant {
		if ix, e3 := exact3Plan(plan); e3 != nil {
			return mergeExact3(ctx, q, g, ix, e3)
		}
	}
	base, err := plan.Run(ctx, qb)
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

// exact3Plan returns the index behind plan and its EXACT3 structure when
// plan is an EXACT3 index, else nils.
func exact3Plan(plan Querier) (*Index, *exact.Exact3) {
	ix, ok := plan.(*Index)
	if !ok {
		return nil, nil
	}
	e3, _ := ix.m.(*exact.Exact3)
	return ix, e3
}

// mergeExact3 answers a sum or average from EXACT3's σ-vector: the two
// stabs score every object over the base, each memtable run's delta is
// added into the vector in place, and one top-k pass ranks the merged
// scores. Nothing here grows with the number of affected series. The
// answer reports IOs, Method and Exact as Index.Run does.
func mergeExact3(ctx context.Context, q Query, g *generation[baseStack], ix *Index, e3 *exact.Exact3) (Answer, error) {
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	start := time.Now()
	items, ios, err := e3.TopKAdjusted(q.K, q.T1, q.T2, func(sums []float64) {
		add := func(id int, delta float64) { sums[id] += delta }
		if g.Frozen != nil {
			g.Frozen.CollectRange(q.T1, q.T2, add)
		}
		g.Active.CollectRange(q.T1, q.T2, add)
	})
	if err != nil {
		return Answer{}, err
	}
	res := toResults(items)
	if q.Agg == AggAvg {
		rescaleAvg(res, q.T1, q.T2)
	}
	return Answer{
		Results: res,
		Method:  ix.Method(),
		Exact:   true,
		Latency: time.Since(start),
		IOs:     ios,
	}, nil
}

// DataVersion returns the planner's append counter: the memtable
// journal's logical append count on top of the DB's version when the
// planner was built. It is a pure function of the applied appends —
// compaction timing does not move it — so replicas that applied the
// same appends always agree.
func (p *Planner) DataVersion() uint64 {
	return p.ingest.base0 + p.ingest.journal.Version()
}

// Score returns the planner's estimate of σ_i(t1,t2) from the primary
// index (or the DB without one), plus the object's memtable delta.
func (p *Planner) Score(id int, t1, t2 float64) (float64, error) {
	g := p.ingest.layer.Load()
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
