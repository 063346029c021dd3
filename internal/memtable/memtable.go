// Package memtable is the write-optimized delta layer in front of the
// immutable indexes: recent appends land in an in-memory table of
// per-series runs in flat float64 columns, never in the indexes. Queries
// merge the table's deltas with the frozen base; a background compaction
// drains a frozen table into freshly built indexes.
//
// A Table's appends take one brief lock; its reads take none. The
// generations that freeze a table and swap in a fresh one live with
// their swap lock in the root package, which this package cannot
// import, so no Table code can take that lock.
package memtable

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"temporalrank/internal/tsdata"
)

// FrontierFunc resolves the current end vertex (time, value) of a
// series in the layers below a table — the frozen table if it holds the
// series, otherwise the base dataset. ok is false for unknown ids.
type FrontierFunc func(id int) (t, v float64, ok bool)

const (
	// Shared chunks start at minChunk vertices and double up to
	// chunkVerts, so block offsets fit a header's 12 offset bits; a
	// larger block gets a chunk of its own. A new run's block holds 4.
	chunkVerts = 1 << 12
	minChunk   = 256
	minBlock   = 4
)

// Table is one memtable: per-series runs of recently appended segments.
// A run's first vertex is the series' frontier at the time of its first
// memtable append, so the run's prefix sums are exactly the delta the
// base is missing. Safe for concurrent use.
//
// A run's vertex times, values and running integrals fill a block of an
// arena of float64 columns, located by a header word per series id: the
// block's first and last entries are the run's start and end vertices,
// its last running integral the run's total. touched lists the series
// with runs, in first-append order. The writer extends a run in place,
// or copies it to a block twice the size, and stores the header after
// the vertices it covers, which never change again: readers need no lock.
type Table struct {
	frontier FrontierFunc
	// mu serializes writers. No callback a Table invokes runs under it.
	mu     sync.Mutex
	layout atomic.Pointer[layout]
	// touched counts the published entries of the layout's touched list.
	touched atomic.Int32
	segs    atomic.Int64
	// earliest holds the float64 bits of the smallest run start, +Inf
	// while the table is empty. Only a first append lowers it.
	earliest atomic.Uint64
	// cur is the shared chunk blocks are cut from, room its free tail
	// and next the next one's size. Guarded by mu.
	cur, room, next int
}

// layout is a table's published geometry. The writer publishes a grown
// copy whenever one of its slices is full; readers load it once per
// call. A reader of an older layout sees older headers, never torn ones.
type layout struct {
	// heads holds a header word per series id, 0 for no run: the chunk
	// in bits 44–63, the offset in bits 32–43, the vertex count below.
	heads   []atomic.Uint64
	touched []int32
	chunks  []chunk
}

// chunk is one arena chunk: a column each of times, values and integrals.
type chunk struct{ times, values, prefix []float64 }

// NewTable creates an empty table; stripes is ignored. frontier resolves
// first-append base vertices and must outlive the table.
func NewTable(frontier FrontierFunc, stripes int) *Table {
	t := &Table{frontier: frontier}
	t.layout.Store(&layout{})
	t.earliest.Store(math.Float64bits(math.Inf(1)))
	return t
}

// Append inserts one segment extending series id to (ts, v), returning
// the series' previous end time (the new segment covers (prevEnd, ts]).
// A first append resolves the frontier before taking mu, as the
// FrontierFunc may read another table.
func (t *Table) Append(id int, ts, v float64) (prevEnd float64, err error) {
	var fv float64
	if h, _, _, _ := t.run(id); h == 0 {
		var ok bool
		if prevEnd, fv, ok = t.frontier(id); !ok || id < 0 {
			return 0, fmt.Errorf("memtable: unknown series %d", id)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// A run created since the check above wins; heads never return to 0.
	h, c, off, last := t.run(id)
	ch, n := int(h>>44), last-off+1
	var total float64 // the run's running integral up to its last vertex
	if h != 0 {
		prevEnd, fv, total = c.times[last], c.values[last], c.prefix[last]
	}
	if !(ts > prevEnd) || math.IsInf(ts, 0) || math.IsNaN(v) || math.IsInf(v, 0) {
		return prevEnd, fmt.Errorf("memtable: series %d: append (%g, %g) must be finite and after end %g", id, ts, v, prevEnd)
	}
	// A finite vertex can still overflow the run's integral, and every
	// window over it would score ±Inf, or NaN once compaction folds it
	// into the base.
	total += tsdata.Segment{T1: prevEnd, T2: ts, V1: fv, V2: v}.Integral()
	if math.IsInf(total, 0) || math.IsNaN(total) {
		return prevEnd, fmt.Errorf("memtable: series %d: append (%g, %g) overflows the series' running integral", id, ts, v)
	}
	switch {
	case h == 0:
		ch, off = t.alloc(minBlock)
		c = &t.layout.Load().chunks[ch]
		c.times[off], c.values[off], c.prefix[off], n = prevEnd, fv, 0, 1
	case n >= minBlock && n&(n-1) == 0:
		// The block is full: move the run to one twice the size.
		old, from := c, off
		ch, off = t.alloc(2 * n)
		c = &t.layout.Load().chunks[ch]
		copy(c.times[off:], old.times[from:from+n])
		copy(c.values[off:], old.values[from:from+n])
		copy(c.prefix[off:], old.prefix[from:from+n])
	}
	i := off + n
	c.times[i], c.values[i], c.prefix[i] = ts, v, total
	if hn := uint64(ch)<<44 | uint64(off)<<32 | uint64(n+1); h == 0 {
		t.publishRun(id, prevEnd, hn)
	} else {
		t.layout.Load().heads[id].Store(hn)
	}
	t.segs.Add(1)
	return prevEnd, nil
}

// publishRun publishes the first header word h of id's run, which starts
// at start, growing the layout as needed. Called with mu held.
func (t *Table) publishRun(id int, start float64, h uint64) {
	n := int(t.touched.Load())
	l := t.layout.Load()
	if id >= len(l.heads) || n == len(l.touched) {
		g := *l
		if id >= len(l.heads) {
			g.heads = make([]atomic.Uint64, max(id+1, 2*len(l.heads), 64))
			copy(g.heads, l.heads) // only this writer stores heads
		}
		if n == len(l.touched) {
			g.touched = make([]int32, max(64, 2*n))
			copy(g.touched, l.touched)
		}
		l = &g
		t.layout.Store(l)
	}
	// Lowered first, so no reader sees the run and a later start.
	if start < t.earliestStart() {
		t.earliest.Store(math.Float64bits(start))
	}
	l.heads[id].Store(h)
	l.touched[n] = int32(id)
	t.touched.Store(int32(n + 1))
}

// alloc cuts a block of size vertices from the arena, publishing a new
// chunk when the shared one has no room. Called with mu held.
func (t *Table) alloc(size int) (ch, off int) {
	l := t.layout.Load()
	if size <= t.room {
		t.room -= size
		return t.cur, len(l.chunks[t.cur].times) - t.room - size
	}
	n := size
	if size <= chunkVerts {
		n = min(chunkVerts, max(minChunk, t.next, size))
		t.cur, t.room, t.next = len(l.chunks), n-size, 2*n
	}
	buf := make([]float64, 3*n)
	g := *l
	// Appending in place is safe: no published layout reaches the slot.
	g.chunks = append(l.chunks, chunk{buf[:n:n], buf[n : 2*n : 2*n], buf[2*n:]})
	t.layout.Store(&g)
	return len(l.chunks), 0
}

// run locates id's run: its header word (0 when there is none), chunk,
// and the column indices of its first and last vertices.
func (t *Table) run(id int) (h uint64, c *chunk, first, last int) {
	l := t.layout.Load()
	if uint(id) < uint(len(l.heads)) {
		if h = l.heads[id].Load(); h != 0 {
			c, first, last = t.block(l, h)
		}
	}
	return h, c, first, last
}

// block locates the run of header word h, loaded from layout l: its
// chunk and the column indices of its first and last vertices. A chunk
// newer than l is in the current layout, published before h was.
func (t *Table) block(l *layout, h uint64) (c *chunk, first, last int) {
	ch, off := int(h>>44), int(h>>32&0xfff)
	if ch >= len(l.chunks) {
		l = t.layout.Load()
	}
	return &l.chunks[ch], off, off + int(uint32(h)) - 1
}

// Segments returns the number of segments appended so far.
func (t *Table) Segments() int64 { return t.segs.Load() }

// Frontier returns the end vertex of id's run, if the table holds one.
func (t *Table) Frontier(id int) (ts, v float64, ok bool) {
	if h, c, _, last := t.run(id); h != 0 {
		return c.times[last], c.values[last], true
	}
	return 0, 0, false
}

// Delta returns the integral of id's run over [t1, t2] — the mass the
// base layers are missing for that window. Zero when the table has no
// overlapping run.
func (t *Table) Delta(id int, t1, t2 float64) float64 {
	if h, c, first, last := t.run(id); h != 0 {
		return c.mass(first, last, t1, t2)
	}
	return 0
}

// At returns the value of id's run at ts, and whether the run covers ts
// — its domain is the half-open (start, end], start being the frontier
// the base already answers for.
func (t *Table) At(id int, ts float64) (float64, bool) {
	if h, c, first, last := t.run(id); h != 0 {
		return c.at(first, last, ts)
	}
	return 0, false
}

// CollectRange calls f(id, delta) for every run whose appended mass
// overlaps [t1, t2] (a run's mass lies in (start, end]), in first-append
// order. A window ending by the earliest run start, as every window over
// history does, returns before the scan.
func (t *Table) CollectRange(t1, t2 float64, f func(id int, delta float64)) {
	if t2 <= t.earliestStart() {
		return
	}
	n := t.touched.Load()
	l := t.layout.Load()
	for _, id := range l.touched[:n] {
		c, first, last := t.block(l, l.heads[id].Load())
		switch start, end := c.times[first], c.times[last]; {
		case t2 <= start || end <= t1:
		case t1 <= start && end <= t2:
			f(int(id), c.prefix[last])
		default:
			f(int(id), c.mass(first, last, t1, t2))
		}
	}
}

// CollectAt calls f(id, value) for every run covering the instant ts
// (domain (start, end]), in first-append order.
func (t *Table) CollectAt(ts float64, f func(id int, v float64)) {
	if ts <= t.earliestStart() {
		return
	}
	n := t.touched.Load()
	l := t.layout.Load()
	for _, id := range l.touched[:n] {
		c, first, last := t.block(l, l.heads[id].Load())
		if v, ok := c.at(first, last, ts); ok {
			f(int(id), v)
		}
	}
}

// earliestStart returns the smallest start of any run, +Inf when the
// table is empty.
func (t *Table) earliestStart() float64 { return math.Float64frombits(t.earliest.Load()) }

// All streams every run's appended vertices (excluding the seed
// frontier vertex) to f, in first-append order, for compaction of a
// frozen table. The slices alias the table's columns, which never
// change: f must not modify them.
func (t *Table) All(f func(id int, times, values []float64)) {
	n := t.touched.Load()
	l := t.layout.Load()
	for _, id := range l.touched[:n] {
		c, first, last := t.block(l, l.heads[id].Load())
		f(int(id), c.times[first+1:last+1:last+1], c.values[first+1:last+1:last+1])
	}
}

// NumSeries returns how many series currently hold runs.
func (t *Table) NumSeries() int { return int(t.touched.Load()) }

// seg returns the segment from vertex j to vertex j+1.
func (c *chunk) seg(j int) tsdata.Segment {
	return tsdata.Segment{T1: c.times[j], T2: c.times[j+1], V1: c.values[j], V2: c.values[j+1]}
}

// segAt returns the segment of the run [first, last] whose span holds x,
// for x strictly inside the run: the largest j with times[j] <= x, as
// tsdata.Series.SegmentAt. It searches the interior vertices only.
func (c *chunk) segAt(first, last int, x float64) int {
	return first + sort.Search(last-first-1, func(i int) bool { return c.times[first+1+i] > x })
}

// mass returns the integral of the run [first, last] over [t1, t2],
// clipped to the run. A window reaching the run's end costs the total
// less the prefix at t1: one search and one partial segment.
func (c *chunk) mass(first, last int, t1, t2 float64) float64 {
	a, b := max(t1, c.times[first]), min(t2, c.times[last])
	if b <= a {
		return 0
	}
	lo, hi, right := first, last, 0.0
	if a > c.times[first] {
		lo = c.segAt(first, last, a)
	}
	if b < c.times[last] {
		if hi = c.segAt(first, last, b); hi == lo {
			return c.seg(lo).IntegralOver(a, b)
		}
		right = c.seg(hi).IntegralOver(c.times[hi], b)
	}
	return c.prefix[hi] - c.prefix[lo+1] + c.seg(lo).IntegralFrom(a) + right
}

// at evaluates the run [first, last] at ts, and reports whether its
// domain (start, end] covers ts.
func (c *chunk) at(first, last int, ts float64) (float64, bool) {
	if !(c.times[first] < ts && ts <= c.times[last]) {
		return 0, false
	}
	return c.seg(c.segAt(first, last, ts)).At(ts), true
}
