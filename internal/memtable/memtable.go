// Package memtable is the write-optimized delta layer in front of the
// immutable indexes: recent appends land in an in-memory table of
// per-series sorted runs (guarded by striped locks, summarized by a
// bloom filter) instead of mutating the indexes under an exclusive
// lock. Queries merge the table's deltas with the frozen base; a
// background compaction drains a frozen table into freshly built
// indexes without ever blocking readers or writers.
//
// The layer holds generations: an immutable base B (dataset + indexes),
// an optional frozen table being compacted, and the active table taking
// writes. Readers pin a generation with one atomic load; compaction
// publishes a new generation with one atomic store. The only write-path
// lock is a short striped mutex per series bucket plus a read-lock on
// the generation-swap mutex, so concurrent appenders to different
// series never contend.
package memtable

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"temporalrank/internal/tsdata"
)

// FrontierFunc resolves the current end vertex (time, value) of a
// series in the layers below a table — the frozen table if it holds the
// series, otherwise the base dataset. ok is false for unknown ids.
type FrontierFunc func(id int) (t, v float64, ok bool)

// stripeCount is the default number of lock stripes (must be a power of
// two). 16 keeps contention negligible at typical writer counts while
// costing ~1 KiB per table.
const stripeCount = 16

// stripe is one lock bucket of the table. The stripe mutex ranks below
// the layer's generation-swap lock: Append holds swapMu.RLock around a
// stripe acquisition, never the reverse.
type stripe struct {
	mu   sync.RWMutex //tr:lockrank 2
	runs map[int]*tsdata.Series
}

// Table is one memtable: per-series sorted runs of recently appended
// segments. Each run is a tsdata.Series whose first vertex is the
// series' frontier at the time of its first memtable append, so the
// run's prefix sums are exactly the delta the base is missing. Safe for
// concurrent use.
type Table struct {
	frontier FrontierFunc
	mask     uint32
	stripes  []stripe
	bloom    bloom
	segs     atomic.Int64
	// earliest holds the float64 bits of the smallest run start, +Inf
	// while the table is empty. A run's start never changes, so it is
	// only lowered, by a first append.
	earliest atomic.Uint64
}

// NewTable creates an empty table. stripes is rounded up to a power of
// two (<= 0 selects the default); frontier resolves first-append base
// vertices and must remain valid for the table's lifetime.
func NewTable(frontier FrontierFunc, stripes int) *Table {
	n := stripeCount
	if stripes > 0 {
		n = 1
		for n < stripes {
			n <<= 1
		}
	}
	t := &Table{frontier: frontier, mask: uint32(n - 1), stripes: make([]stripe, n)}
	for i := range t.stripes {
		t.stripes[i].runs = make(map[int]*tsdata.Series)
	}
	t.bloom.init()
	t.earliest.Store(math.Float64bits(math.Inf(1)))
	return t
}

// Append inserts one segment extending series id to (ts, v), returning
// the series' previous end time (the new segment covers (prevEnd, ts]).
// The frontier for a first append is resolved with no stripe lock held
// — the FrontierFunc may itself read another table's stripes.
func (t *Table) Append(id int, ts, v float64) (prevEnd float64, err error) {
	st := &t.stripes[uint32(id)&t.mask]
	st.mu.Lock()
	if r := st.runs[id]; r != nil {
		prev := r.End()
		err := r.Append(ts, v)
		st.mu.Unlock()
		if err != nil {
			return prev, err
		}
		t.segs.Add(1)
		return prev, nil
	}
	st.mu.Unlock()

	ft, fv, ok := t.frontier(id)
	if !ok {
		return 0, fmt.Errorf("memtable: unknown series %d", id)
	}

	st.mu.Lock()
	if r := st.runs[id]; r != nil {
		// Raced with another first appender: the run exists now.
		prev := r.End()
		err := r.Append(ts, v)
		st.mu.Unlock()
		if err != nil {
			return prev, err
		}
		t.segs.Add(1)
		return prev, nil
	}
	r, err := tsdata.NewSeries(tsdata.SeriesID(id), []float64{ft, ts}, []float64{fv, v})
	if err != nil {
		st.mu.Unlock()
		return ft, fmt.Errorf("memtable: series %d: %w", id, err)
	}
	// Lowered before the run is published, so no reader can see the run
	// and a later start.
	for old := t.earliest.Load(); ft < math.Float64frombits(old); old = t.earliest.Load() {
		if t.earliest.CompareAndSwap(old, math.Float64bits(ft)) {
			break
		}
	}
	st.runs[id] = r
	st.mu.Unlock()
	t.segs.Add(1)
	t.bloom.add(uint64(id))
	return ft, nil
}

// Segments returns the number of segments appended so far.
func (t *Table) Segments() int64 { return t.segs.Load() }

// MayContain reports whether the table can hold a run for id; false is
// definitive.
func (t *Table) MayContain(id int) bool {
	return t.segs.Load() != 0 && t.bloom.mayContain(uint64(id))
}

// Frontier returns the end vertex of id's run, if the table holds one.
func (t *Table) Frontier(id int) (ts, v float64, ok bool) {
	if !t.MayContain(id) {
		return 0, 0, false
	}
	st := &t.stripes[uint32(id)&t.mask]
	st.mu.RLock()
	r := st.runs[id]
	if r == nil {
		st.mu.RUnlock()
		return 0, 0, false
	}
	ts, v = r.End(), r.VertexValue(r.NumSegments())
	st.mu.RUnlock()
	return ts, v, true
}

// Delta returns the integral of id's run over [t1, t2] — the mass the
// base layers are missing for that window. Zero when the table has no
// overlapping run.
func (t *Table) Delta(id int, t1, t2 float64) float64 {
	if !t.MayContain(id) {
		return 0
	}
	st := &t.stripes[uint32(id)&t.mask]
	st.mu.RLock()
	r := st.runs[id]
	var d float64
	if r != nil {
		d = r.Range(t1, t2)
	}
	st.mu.RUnlock()
	return d
}

// At returns the value of id's run at ts, and whether the run covers ts
// — its domain is the half-open (start, end], start being the frontier
// the base already answers for.
func (t *Table) At(id int, ts float64) (float64, bool) {
	if !t.MayContain(id) {
		return 0, false
	}
	st := &t.stripes[uint32(id)&t.mask]
	st.mu.RLock()
	r := st.runs[id]
	var v float64
	ok := false
	if r != nil && r.Start() < ts && ts <= r.End() {
		v, ok = r.At(ts), true
	}
	st.mu.RUnlock()
	return v, ok
}

// CollectRange calls f(id, delta) for every run whose appended mass
// overlaps the window [t1, t2] (a run's mass lies in (start, end]).
// f runs with the stripe read lock held and must not call back into the
// table. A window ending by the earliest run start, as every window
// over history does, returns before the stripe scan.
func (t *Table) CollectRange(t1, t2 float64, f func(id int, delta float64)) {
	if t2 <= t.earliestStart() {
		return
	}
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.RLock()
		for id, r := range st.runs {
			if r.Start() < t2 && t1 < r.End() {
				f(id, r.Range(t1, t2))
			}
		}
		st.mu.RUnlock()
	}
}

// CollectAt calls f(id, value) for every run covering the instant ts
// (domain (start, end]). f runs with the stripe read lock held and must
// not call back into the table.
func (t *Table) CollectAt(ts float64, f func(id int, v float64)) {
	if ts <= t.earliestStart() {
		return
	}
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.RLock()
		for id, r := range st.runs {
			if r.Start() < ts && ts <= r.End() {
				f(id, r.At(ts))
			}
		}
		st.mu.RUnlock()
	}
}

// earliestStart returns the smallest start of any run, +Inf when the
// table is empty.
func (t *Table) earliestStart() float64 { return math.Float64frombits(t.earliest.Load()) }

// All streams every run's appended vertices (excluding the seed
// frontier vertex) to f, stripe by stripe. It is meant for compaction
// of a frozen table: callers must ensure no concurrent appends, so the
// vertex slices passed to f are stable snapshots.
func (t *Table) All(f func(id int, times, values []float64)) {
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.RLock()
		type snap struct {
			id            int
			times, values []float64
		}
		snaps := make([]snap, 0, len(st.runs))
		for id, r := range st.runs {
			n := r.NumSegments()
			times := make([]float64, n)
			values := make([]float64, n)
			for j := 1; j <= n; j++ {
				times[j-1] = r.VertexTime(j)
				values[j-1] = r.VertexValue(j)
			}
			snaps = append(snaps, snap{id: id, times: times, values: values})
		}
		st.mu.RUnlock()
		for _, s := range snaps {
			f(s.id, s.times, s.values)
		}
	}
}

// NumSeries returns how many series currently hold runs.
func (t *Table) NumSeries() int {
	n := 0
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.RLock()
		n += len(st.runs)
		st.mu.RUnlock()
	}
	return n
}
