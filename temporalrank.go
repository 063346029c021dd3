// Package temporalrank ranks large temporal data by aggregate scores,
// implementing the VLDB 2012 paper "Ranking Large Temporal Data"
// (Jestes, Phillips, Li, Tang).
//
// A temporal database holds m objects, each a piecewise-linear score
// function g_i over time. An aggregate top-k query top-k(t1, t2, sum)
// returns the k objects with the largest σ_i(t1,t2) = ∫_{t1}^{t2} g_i.
//
// The package offers three exact indexes and five approximate indexes
// with (ε,α)-approximation guarantees:
//
//	Method      Guarantee        Query IOs            Index size
//	EXACT1      exact            O(log_B N + N/B)     O(N/B)
//	EXACT2      exact            O(Σ log_B n_i)       O(N/B)
//	EXACT3      exact            O(log_B N + m/B)     O(N/B)
//	APPX1-B     (ε, 1)           O(k/B + log_B r)     O(r²·kmax/B)
//	APPX2-B     (ε, 2·log r)     O(k·log r·log_B k)   O(r·kmax/B)
//	APPX1       (ε, 1)           O(k/B + log_B r)     O(r²·kmax/B)
//	APPX2       (ε, 2·log r)     O(k·log r·log_B k)   O(r·kmax/B)
//	APPX2+      empirically ~exact, APPX2 cost + k·log r lookups
//
// Quick start:
//
//	db, _ := temporalrank.NewDB([]temporalrank.SeriesInput{
//	    {Times: []float64{0, 1, 2}, Values: []float64{3, 5, 4}},
//	    {Times: []float64{0, 1, 2}, Values: []float64{6, 1, 2}},
//	})
//	idx, _ := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
//	ans, _ := idx.Run(context.Background(), temporalrank.SumQuery(1, 0.5, 1.5))
package temporalrank

import (
	"fmt"
	"sync"
	"sync/atomic"

	"temporalrank/internal/approx"
	"temporalrank/internal/blockio"
	"temporalrank/internal/breakpoint"
	"temporalrank/internal/core"
	"temporalrank/internal/exact"
	"temporalrank/internal/topk"
	"temporalrank/internal/tsdata"
)

// Method selects an index implementation.
type Method string

// The eight methods of the paper.
const (
	MethodExact1 Method = "EXACT1"
	MethodExact2 Method = "EXACT2"
	MethodExact3 Method = "EXACT3"
	MethodAppx1B Method = "APPX1-B"
	MethodAppx2B Method = "APPX2-B"
	MethodAppx1  Method = "APPX1"
	MethodAppx2  Method = "APPX2"
	MethodAppx2P Method = "APPX2+"
)

// IsApprox reports whether the method gives approximate answers.
func (m Method) IsApprox() bool {
	if m == MethodReference {
		return false
	}
	return core.IsApprox(core.MethodName(m))
}

// Methods lists all supported methods in the paper's order.
func Methods() []Method {
	out := make([]Method, 0, 8)
	for _, n := range core.AllMethods() {
		out = append(out, Method(n))
	}
	return out
}

// SeriesInput is one object's raw vertices: strictly increasing Times
// and equal-length Values (at least two points).
type SeriesInput struct {
	Times  []float64
	Values []float64
}

// Result is one ranked object.
type Result struct {
	ID    int     // object position in the DB (0-based)
	Score float64 // the method's (possibly approximate) σ(t1,t2)
}

// DB is an immutable-by-default temporal database; objects can only
// grow at their time frontier via Append (the paper's update model).
//
// DB is safe for concurrent use: reads (Run, Score, and the accessors)
// take a shared lock, and appends take the exclusive lock while they
// mutate the underlying dataset. A DB with indexes built over it takes
// writes through a Planner holding them, never directly: an Index is
// immutable and would not see the append.
type DB struct {
	// mu guards ds.
	mu sync.RWMutex
	ds *tsdata.Dataset
	// version counts the appends the dataset holds: DB.Append bumps it
	// under mu, and a compaction or snapshot restore sets it on the DB it
	// builds, so a snapshot manifest records how many appends its data
	// reflects.
	version atomic.Uint64
}

// NewDB validates and assembles a database from raw series.
func NewDB(series []SeriesInput) (*DB, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("temporalrank: no series given: %w", ErrNoInput)
	}
	ss := make([]*tsdata.Series, len(series))
	for i, in := range series {
		s, err := tsdata.NewSeries(tsdata.SeriesID(i), in.Times, in.Values)
		if err != nil {
			return nil, err
		}
		ss[i] = s
	}
	ds, err := tsdata.NewDataset(ss)
	if err != nil {
		return nil, err
	}
	return &DB{ds: ds}, nil
}

// NewDBFromDataset wraps an existing dataset (used by the generators
// and the experiment harness).
func NewDBFromDataset(ds *tsdata.Dataset) *DB {
	return &DB{ds: ds}
}

// Snapshot returns a deep copy of the underlying dataset taken under
// the read lock, safe to use (and mutate) regardless of concurrent
// appends.
func (db *DB) Snapshot() *tsdata.Dataset {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ds.Clone()
}

// NumSeries returns m.
func (db *DB) NumSeries() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ds.NumSeries()
}

// NumSegments returns N.
func (db *DB) NumSegments() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ds.NumSegments()
}

// Start returns the left end of the temporal domain.
func (db *DB) Start() float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ds.Start()
}

// End returns the right end of the temporal domain (the paper's T).
func (db *DB) End() float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ds.End()
}

// Span returns the width of the temporal domain, End() − Start().
func (db *DB) Span() float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ds.Span()
}

// Score computes σ_i(t1,t2) exactly from the in-memory representation.
// An out-of-range id wraps ErrUnknownSeries.
func (db *DB) Score(id int, t1, t2 float64) (float64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if id < 0 || id >= db.ds.NumSeries() {
		return 0, fmt.Errorf("temporalrank: %w: %d", ErrUnknownSeries, id)
	}
	return db.ds.Series(tsdata.SeriesID(id)).Range(t1, t2), nil
}

// Append extends object id with a new segment ending at (t, v); t must
// be after the object's current end (§4 update model). It is the
// ingest of the standalone brute-force reference. A DB under a Planner
// takes writes through Planner.Append instead, which buffers them in
// the planner's memtable and leaves the DB and its indexes untouched
// until a compaction builds their successors.
func (db *DB) Append(id int, t, v float64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if id < 0 || id >= db.ds.NumSeries() {
		return fmt.Errorf("temporalrank: %w: %d", ErrUnknownSeries, id)
	}
	if err := db.ds.Series(tsdata.SeriesID(id)).Append(t, v); err != nil {
		return err
	}
	db.ds.Refresh()
	db.version.Add(1)
	return nil
}

// Options configures BuildIndex.
type Options struct {
	// Method selects the index; default MethodExact3 (the paper's best
	// exact method).
	Method Method
	// BlockSize is the device page size in bytes (default 4096).
	BlockSize int
	// KMax bounds future query k on approximate methods (default 200).
	KMax int
	// Epsilon sets the (ε,α) error parameter directly; when 0, TargetR
	// is used instead. Under a Planner, every compaction rebuilds the
	// index at this ε.
	Epsilon float64
	// TargetR asks for about this many breakpoints (default 500): the
	// build searches for the ε that yields them. Under a Planner, a
	// compaction rebuilds the index at that ε in one pass, and searches
	// again only once the dataset's total mass M has doubled since the
	// last search (the paper's §4 rebuild rule). In between, ε and its
	// (ε,α) bound stay fixed while r drifts with the data.
	TargetR int
	// CacheBlocks puts a write-through buffer pool (a CLOCK read cache)
	// of that many pages in front of an in-memory index's device. It has
	// no effect on an index built with OnDiskPath, which is read in
	// place from a mapping of its file and cached by the OS.
	CacheBlocks int
	// OnDiskPath stores the index in a file instead of memory. Queries
	// read its pages in place from a read-only mmap of the file (on unix
	// systems; elsewhere each page is read into a pooled copy), so the
	// OS page cache is the index's only cache. Under a Planner, each
	// compaction builds the next generation in a sibling file
	// <OnDiskPath>.genN and then unlinks the generation it replaced;
	// readers still on the old generation keep its mapping.
	OnDiskPath string
}

// Index is a built aggregate top-k index. It is immutable once built:
// nothing changes its structures or its DB's data afterwards, so it is
// safe for concurrent use without locks. New data reaches an index-
// backed stack through Planner.Append, whose compactions build fresh
// indexes over the grown data.
type Index struct {
	m  exact.Method
	db *DB
	// opts records the build configuration (with Method normalized) so
	// memtable compaction can rebuild an equivalent index over the
	// compacted dataset.
	opts Options
	// file is the file the index lives in when built with OnDiskPath:
	// opts.OnDiskPath for a first build, a per-generation sibling of it
	// for a compaction's rebuild.
	file string
	// searchM and searchR record the last ε search behind an approximate
	// index built from TargetR: the dataset's total mass M when it ran
	// and the r it aimed for. Compactions carry them from generation to
	// generation until M doubles (see rebuildBase). Both are zero when
	// no search chose ε: exact methods and a fixed Options.Epsilon.
	searchM float64
	searchR int
}

// BuildIndex constructs an index over the database.
func (db *DB) BuildIndex(opts Options) (*Index, error) {
	name := core.MethodName(opts.Method)
	if opts.Method == "" {
		name = core.Exact3
	}
	cfg := core.Config{
		BlockSize: opts.BlockSize,
		KMax:      opts.KMax,
		Epsilon:   opts.Epsilon,
		TargetR:   opts.TargetR,
	}
	if opts.OnDiskPath == "" {
		cfg.CacheBlocks = opts.CacheBlocks
	} else {
		path := opts.OnDiskPath
		cfg.NewDevice = func(bs int) (blockio.Device, error) {
			return blockio.OpenFileDevice(path, bs)
		}
	}
	db.mu.RLock()
	m, err := core.Build(name, db.ds, cfg)
	mass := db.ds.M()
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	opts.Method = Method(name)
	ix := &Index{m: m, db: db, opts: opts, file: opts.OnDiskPath}
	if _, ok := m.(approx.Index); ok && opts.Epsilon <= 0 {
		ix.searchM, ix.searchR = mass, opts.TargetR
		if ix.searchR <= 0 {
			ix.searchR = core.DefaultTargetR
		}
	}
	return ix, nil
}

// Method returns the index's method name.
func (ix *Index) Method() Method { return Method(ix.m.Name()) }

// Epsilon returns the (ε,α) error parameter the index was built with;
// 0 for exact methods. The Planner compares it against a Query's
// MaxEpsilon when routing.
func (ix *Index) Epsilon() float64 {
	if a, ok := ix.m.(approx.Index); ok {
		return a.Epsilon()
	}
	return 0
}

// KMax returns the largest query k the index supports; 0 means
// unbounded (exact methods). Queries beyond KMax wrap ErrKTooLarge.
func (ix *Index) KMax() int {
	if a, ok := ix.m.(approx.Index); ok {
		return a.KMax()
	}
	return 0
}

// breakpoints returns the size r of the index's breakpoint set (0 for
// exact methods) — an input to the Planner's cost model.
func (ix *Index) breakpoints() int {
	if b, ok := ix.m.(interface{ Breaks() *breakpoint.Set }); ok {
		return b.Breaks().R()
	}
	return 0
}

// topK answers top-k(t1, t2, sum) through the index, with the call's
// IOs.
func (ix *Index) topK(k int, t1, t2 float64) ([]Result, uint64, error) {
	items, ios, err := ix.m.TopKIOs(k, t1, t2)
	if err != nil {
		return nil, ios, err
	}
	return toResults(items), ios, nil
}

// Score returns the index's estimate of σ_i(t1,t2): exact for exact
// methods; for approximate methods the stored estimate, or an error
// wrapping ErrNotMaterialized when the object is outside the
// materialized lists (no estimate exists — callers wanting a value for
// every object should use DB.Score or an exact index).
func (ix *Index) Score(id int, t1, t2 float64) (float64, error) {
	return ix.m.Score(tsdata.SeriesID(id), t1, t2)
}

// DataVersion returns the number of appends the DB's data reflects:
// each DB.Append adds one, and a DB a compaction or snapshot restore
// built starts at the count its data carries.
func (db *DB) DataVersion() uint64 { return db.version.Load() }

// Stats reports index size and cumulative device IO.
type Stats struct {
	Pages      int
	Bytes      int64
	DeviceIOs  uint64
	BlockSize  int
	MethodName string
}

// Stats returns current index statistics. The device counters are
// atomic, so this is safe (and non-blocking) even while queries are in
// flight; DeviceIOs includes a query's IOs once the query has ended.
func (ix *Index) Stats() Stats {
	bs := ix.m.Device().BlockSize()
	pages := ix.m.IndexPages()
	return Stats{
		Pages:      pages,
		Bytes:      int64(pages) * int64(bs),
		DeviceIOs:  ix.m.Device().Stats().Total(),
		BlockSize:  bs,
		MethodName: ix.m.Name(),
	}
}

// ResetStats zeroes the device IO counters (for measuring one query).
// A query in flight adds all its IOs when it ends, those before the
// reset too.
func (ix *Index) ResetStats() {
	ix.m.Device().ResetStats()
}

func toResults(items []topk.Item) []Result {
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{ID: int(it.ID), Score: it.Score}
	}
	return out
}
