package memtable

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"temporalrank/internal/tsdata"
)

// near reports got within 1e-12 of want, relative.
func near(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }

// flatFrontier is a FrontierFunc over n series all ending at (t0, v0).
func flatFrontier(n int, t0, v0 float64) FrontierFunc {
	return func(id int) (float64, float64, bool) {
		if id < 0 || id >= n {
			return 0, 0, false
		}
		return t0, v0, true
	}
}

func TestTableAppendAndFrontier(t *testing.T) {
	tb := NewTable(flatFrontier(4, 10, 2), 0)
	if tb.Segments() != 0 || tb.NumSeries() != 0 {
		t.Fatal("fresh table not empty")
	}
	if _, _, ok := tb.Frontier(1); ok {
		t.Fatal("empty table claims series 1")
	}

	prev, err := tb.Append(1, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if prev != 10 {
		t.Fatalf("first append prevEnd %g, want the base frontier 10", prev)
	}
	prev, err = tb.Append(1, 14, 6)
	if err != nil {
		t.Fatal(err)
	}
	if prev != 12 {
		t.Fatalf("second append prevEnd %g, want 12", prev)
	}
	if tb.Segments() != 2 || tb.NumSeries() != 1 {
		t.Fatalf("got %d segments / %d series, want 2 / 1", tb.Segments(), tb.NumSeries())
	}
	ts, v, ok := tb.Frontier(1)
	if !ok || ts != 14 || v != 6 {
		t.Fatalf("frontier (%g, %g, %v), want (14, 6, true)", ts, v, ok)
	}
	if _, _, ok := tb.Frontier(2); ok {
		t.Fatal("frontier for an absent series")
	}

	// Violations: unknown series, behind-frontier time.
	if _, err := tb.Append(99, 20, 1); err == nil {
		t.Fatal("unknown series accepted")
	}
	if _, err := tb.Append(1, 13, 1); err == nil {
		t.Fatal("behind-frontier append accepted")
	}
	if _, err := tb.Append(2, 9, 1); err == nil {
		t.Fatal("first append behind the base frontier accepted")
	}
	for _, p := range [][2]float64{{math.NaN(), 1}, {math.Inf(1), 1}, {20, math.NaN()}, {20, math.Inf(-1)}} {
		if _, err := tb.Append(1, p[0], p[1]); err == nil {
			t.Fatalf("non-finite append (%g, %g) accepted", p[0], p[1])
		}
		if _, err := tb.Append(3, p[0], p[1]); err == nil {
			t.Fatalf("non-finite first append (%g, %g) accepted", p[0], p[1])
		}
	}
	if ts, _, _ := tb.Frontier(1); ts != 14 || tb.Segments() != 2 {
		t.Fatalf("rejected appends changed the table: frontier %g, %d segments", ts, tb.Segments())
	}
}

// TestTableAppendOverflow: a finite vertex whose segment area, or the
// run's running integral with it, overflows float64 is refused before
// anything is published, on a first append and on a later one alike.
func TestTableAppendOverflow(t *testing.T) {
	tb := NewTable(flatFrontier(2, 10, 2), 0)
	if _, err := tb.Append(0, 10+1e10, 1e308); err == nil {
		t.Fatal("first append whose area overflows accepted")
	}
	if tb.Segments() != 0 || tb.NumSeries() != 0 {
		t.Fatalf("refused first append left %d segments / %d series", tb.Segments(), tb.NumSeries())
	}
	// Each segment's area is finite; the third takes the running
	// integral past the largest float64.
	for i, ts := range []float64{11, 12, 13} {
		if _, err := tb.Append(1, ts, 6e307); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, err := tb.Append(1, 14, 6e307); err == nil {
		t.Fatal("append whose running integral overflows accepted")
	}
	if ts, _, _ := tb.Frontier(1); ts != 13 || tb.Segments() != 3 {
		t.Fatalf("refused append changed the table: frontier %g, %d segments", ts, tb.Segments())
	}
	if d := tb.Delta(1, 10, 20); math.IsInf(d, 0) || math.IsNaN(d) {
		t.Fatalf("delta over the run is %g", d)
	}
}

func TestTableDeltaAndAt(t *testing.T) {
	// Base frontier (10, 2); run vertices (10,2) -> (12,4) -> (14,0).
	tb := NewTable(flatFrontier(2, 10, 2), 0)
	mustAppend := func(id int, ts, v float64) {
		t.Helper()
		if _, err := tb.Append(id, ts, v); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(0, 12, 4)
	mustAppend(0, 14, 0)

	// Full-run integral: trapezoids (2+4)/2*2 + (4+0)/2*2 = 6 + 4 = 10.
	if d := tb.Delta(0, 10, 14); math.Abs(d-10) > 1e-12 {
		t.Fatalf("full delta %g, want 10", d)
	}
	// Clipped to [11, 13]: value at 11 is 3, at 12 is 4, at 13 is 2 →
	// (3+4)/2 + (4+2)/2 = 3.5 + 3 = 6.5.
	if d := tb.Delta(0, 11, 13); math.Abs(d-6.5) > 1e-12 {
		t.Fatalf("clipped delta %g, want 6.5", d)
	}
	// Outside the run and absent series contribute nothing.
	if d := tb.Delta(0, 20, 30); d != 0 {
		t.Fatalf("beyond-run delta %g, want 0", d)
	}
	if d := tb.Delta(1, 10, 14); d != 0 {
		t.Fatalf("absent-series delta %g, want 0", d)
	}

	// At: domain is (start, end] — the frontier instant belongs to the
	// base, the end instant to the run.
	if _, ok := tb.At(0, 10); ok {
		t.Fatal("At(10) covered: the frontier vertex belongs to the base")
	}
	if v, ok := tb.At(0, 12); !ok || v != 4 {
		t.Fatalf("At(12) = (%g, %v), want (4, true)", v, ok)
	}
	if v, ok := tb.At(0, 14); !ok || v != 0 {
		t.Fatalf("At(14) = (%g, %v), want (0, true)", v, ok)
	}
	if v, ok := tb.At(0, 13); !ok || math.Abs(v-2) > 1e-12 {
		t.Fatalf("At(13) = (%g, %v), want (2, true)", v, ok)
	}
	if _, ok := tb.At(0, 15); ok {
		t.Fatal("At beyond the run covered")
	}
}

func TestTableCollect(t *testing.T) {
	tb := NewTable(flatFrontier(8, 0, 0), 2)
	for id := 0; id < 4; id++ {
		if _, err := tb.Append(id, float64(10+id), 1); err != nil {
			t.Fatal(err)
		}
	}
	got := map[int]float64{}
	tb.CollectRange(0, 20, func(id int, d float64) { got[id] = d })
	if len(got) != 4 {
		t.Fatalf("CollectRange found %d series, want 4", len(got))
	}
	// Run for id covers (0, 10+id] with values 0→1: mass (10+id)/2.
	for id, d := range got {
		want := float64(10+id) / 2
		if math.Abs(d-want) > 1e-12 {
			t.Fatalf("series %d delta %g, want %g", id, d, want)
		}
	}
	// A window before every run's mass (all runs start at 0, exclusive).
	none := 0
	tb.CollectRange(-5, 0, func(int, float64) { none++ })
	if none != 0 {
		t.Fatalf("window ending at the shared frontier matched %d runs", none)
	}
	ids := []int{}
	tb.CollectAt(10, func(id int, v float64) { ids = append(ids, id) })
	sort.Ints(ids)
	if len(ids) != 4 {
		t.Fatalf("CollectAt(10) matched %v, want all 4 runs", ids)
	}
}

// A window that ends by the earliest run start returns before the
// stripe scan; one that reaches past it still finds exactly the runs it
// overlaps.
func TestTableHistoricalWindowSkipsScan(t *testing.T) {
	const runs = 750
	tb := NewTable(func(id int) (float64, float64, bool) {
		return 100 + float64(id)/10, 1, id >= 0 && id < runs
	}, 0)
	if got := tb.earliestStart(); !math.IsInf(got, 1) {
		t.Fatalf("empty table's earliest start is %g, want +Inf", got)
	}
	for id := runs - 1; id >= 0; id-- {
		if _, err := tb.Append(id, 200+float64(id), 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.earliestStart(); got != 100 {
		t.Fatalf("earliest start %g, want 100", got)
	}
	calls := 0
	count := func(int, float64) { calls++ }
	tb.CollectRange(0, 100, count)
	tb.CollectAt(100, count)
	tb.CollectAt(50, count)
	if calls != 0 {
		t.Fatalf("historical windows called f %d times", calls)
	}
	var ids []int
	tb.CollectRange(0, 100.15, func(id int, _ float64) { ids = append(ids, id) })
	tb.CollectAt(100.05, func(id int, _ float64) { ids = append(ids, id) })
	sort.Ints(ids)
	if want := []int{0, 0, 1}; !slices.Equal(ids, want) {
		t.Fatalf("windows past the earliest start found runs %v, want %v", ids, want)
	}
}

func TestTableAllSnapshots(t *testing.T) {
	tb := NewTable(flatFrontier(8, 5, 1), 0)
	want := map[int][][2]float64{}
	for id := 0; id < 5; id++ {
		for j := 0; j < 3; j++ {
			ts := 5 + float64(j+1)
			v := float64(id*10 + j)
			if _, err := tb.Append(id, ts, v); err != nil {
				t.Fatal(err)
			}
			want[id] = append(want[id], [2]float64{ts, v})
		}
	}
	seen := map[int]bool{}
	tb.All(func(id int, times, values []float64) {
		if seen[id] {
			t.Fatalf("series %d streamed twice", id)
		}
		seen[id] = true
		w := want[id]
		if len(times) != len(w) || len(values) != len(w) {
			t.Fatalf("series %d: %d vertices, want %d", id, len(times), len(w))
		}
		for j := range w {
			if times[j] != w[j][0] || values[j] != w[j][1] {
				t.Fatalf("series %d vertex %d: (%g, %g), want (%g, %g)",
					id, j, times[j], values[j], w[j][0], w[j][1])
			}
		}
	})
	if len(seen) != 5 {
		t.Fatalf("All streamed %d series, want 5", len(seen))
	}
}

func TestTableConcurrentAppend(t *testing.T) {
	const (
		series  = 64
		writers = 8
		perID   = 50
	)
	tb := NewTable(flatFrontier(series, 0, 0), 0)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each writer owns a disjoint slice of series, so appends per
			// series are ordered and must all succeed.
			for i := 0; i < perID; i++ {
				for id := w; id < series; id += writers {
					if _, err := tb.Append(id, float64(i+1), float64(i)); err != nil {
						t.Errorf("writer %d series %d: %v", w, id, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tb.Segments(); got != series*perID {
		t.Fatalf("%d segments, want %d", got, series*perID)
	}
	if got := tb.NumSeries(); got != series {
		t.Fatalf("%d series, want %d", got, series)
	}
	for id := 0; id < series; id++ {
		if ts, _, ok := tb.Frontier(id); !ok || ts != perID {
			t.Fatalf("series %d frontier (%g, %v), want (%d, true)", id, ts, ok, perID)
		}
	}
}

// TestTableMatchesSeries checks the flat table against tsdata.Series on
// the same vertices: random runs of 1 to 60 segments, appended
// interleaved so blocks move while other runs grow, queried over every
// window shape and at every instant kind. Values are positive, so
// every nonzero reference is well conditioned at 1e-12 relative.
func TestTableMatchesSeries(t *testing.T) {
	const series = 40
	rng := rand.New(rand.NewSource(11))
	start := make([]float64, series)
	for id := range start {
		start[id] = float64(rng.Intn(50))
	}
	tb := NewTable(func(id int) (float64, float64, bool) {
		return start[id], 5, id >= 0 && id < series
	}, 0)
	times := make([][]float64, series)
	values := make([][]float64, series)
	left := make([]int, series)
	for id := range times {
		times[id], values[id] = []float64{start[id]}, []float64{5}
		left[id] = 1 + rng.Intn(60)
		if id < 6 {
			left[id] = 1 // single-segment runs, the shape between compactions
		}
	}
	for pending := series; pending > 0; {
		id := rng.Intn(series)
		if left[id] == 0 {
			continue
		}
		ts := times[id][len(times[id])-1] + 0.25 + rng.Float64()*3
		v := 1 + rng.Float64()*99
		if _, err := tb.Append(id, ts, v); err != nil {
			t.Fatal(err)
		}
		times[id], values[id] = append(times[id], ts), append(values[id], v)
		if left[id]--; left[id] == 0 {
			pending--
		}
	}
	ref := make([]*tsdata.Series, series)
	for id := range ref {
		var err error
		if ref[id], err = tsdata.NewSeries(tsdata.SeriesID(id), times[id], values[id]); err != nil {
			t.Fatal(err)
		}
	}

	checkWindow := func(t1, t2 float64) {
		t.Helper()
		got := map[int]float64{}
		tb.CollectRange(t1, t2, func(id int, d float64) { got[id] = d })
		for id, r := range ref {
			want := r.Range(t1, t2)
			if d := tb.Delta(id, t1, t2); !near(d, want) {
				t.Fatalf("series %d: Delta(%g, %g) = %.17g, want %.17g", id, t1, t2, d, want)
			}
			d, ok := got[id]
			if overlaps := r.Start() < t2 && t1 < r.End(); ok != overlaps {
				t.Fatalf("series %d (%g, %g]: CollectRange(%g, %g) reported %v, want %v", id, r.Start(), r.End(), t1, t2, ok, overlaps)
			}
			if ok && !near(d, want) {
				t.Fatalf("series %d: CollectRange(%g, %g) delta %.17g, want %.17g", id, t1, t2, d, want)
			}
		}
	}
	checkInstant := func(x float64) {
		t.Helper()
		got := map[int]float64{}
		tb.CollectAt(x, func(id int, v float64) { got[id] = v })
		for id, r := range ref {
			covered := r.Start() < x && x <= r.End()
			var want float64
			if covered {
				want = r.At(x)
			}
			if v, ok := tb.At(id, x); ok != covered || !near(v, want) {
				t.Fatalf("series %d (%g, %g]: At(%g) = (%g, %v), want (%g, %v)", id, r.Start(), r.End(), x, v, ok, want, covered)
			}
			if v, ok := got[id]; ok != covered || !near(v, want) {
				t.Fatalf("series %d (%g, %g]: CollectAt(%g) = (%g, %v), want (%g, %v)", id, r.Start(), r.End(), x, v, ok, want, covered)
			}
		}
	}

	for id, r := range ref {
		s, e := r.Start(), r.End()
		inner := func() float64 { return s + (e-s)*(0.05+0.9*rng.Float64()) }
		a, b := inner(), inner()
		a, b = min(a, b), max(a, b)
		vertex := func() float64 { return times[id][rng.Intn(len(times[id]))] }
		for _, w := range [][2]float64{
			{s - 10, s - 1}, // wholly before
			{s - 5, s},      // ends at the start: no mass
			{e, e + 5},      // starts at the end: no mass
			{s - 1, e + 1},  // covering
			{s, e},          // exactly the run
			{a, e + 3},      // starting inside
			{s - 2, a},      // ending inside
			{a, b},          // both inside
			{s, b},          // t1 == start
			{a, e},          // t2 == end
			{a, a},          // empty
			{b, a},          // inverted
			{vertex(), vertex()},
		} {
			checkWindow(w[0], w[1])
		}
		for _, x := range []float64{s, e, s - 1, e + 1, a, vertex()} {
			checkInstant(x)
		}
		if ts, v, ok := tb.Frontier(id); !ok || ts != e || v != values[id][len(values[id])-1] {
			t.Fatalf("series %d frontier (%g, %g, %v), want (%g, %g, true)", id, ts, v, ok, e, values[id][len(values[id])-1])
		}
	}
	var order []int
	tb.All(func(id int, ts, vs []float64) {
		order = append(order, id)
		if !slices.Equal(ts, times[id][1:]) || !slices.Equal(vs, values[id][1:]) {
			t.Fatalf("All: series %d vertices differ from its appends", id)
		}
	})
	if len(order) != series || tb.NumSeries() != series {
		t.Fatalf("All streamed %d series, NumSeries %d, want %d", len(order), tb.NumSeries(), series)
	}
}

// TestTableLockFreeReaders runs readers beside one writer. Every delta a
// reader sees must equal the reference over some prefix of that
// series' appends, which a torn header or a half-written vertex would
// break. Run with -race.
func TestTableLockFreeReaders(t *testing.T) {
	const (
		series  = 4
		appends = 5000 // enough for a run to outgrow a shared chunk
		readers = 3
	)
	rng := rand.New(rand.NewSource(3))
	times := make([][]float64, series)
	values := make([][]float64, series)
	for id := range times {
		times[id], values[id] = []float64{0}, []float64{1}
		for j := 0; j < appends; j++ {
			times[id] = append(times[id], times[id][j]+0.5+rng.Float64())
			values[id] = append(values[id], 1+rng.Float64()*9)
		}
	}
	// want[w][id][p] is the mass of series id's first p appends over
	// window w: the whole run's mass up to its p-th appended vertex.
	// Positive values make it non-decreasing in p.
	windows := [][2]float64{{-1, math.Inf(1)}, {float64(appends) / 2, math.Inf(1)}, {-1, float64(appends) / 3}}
	want := make([][][]float64, len(windows))
	for w, win := range windows {
		want[w] = make([][]float64, series)
		for id := range want[w] {
			s, err := tsdata.NewSeries(0, times[id], values[id])
			if err != nil {
				t.Fatal(err)
			}
			want[w][id] = make([]float64, appends+1)
			for p := 1; p <= appends; p++ {
				want[w][id][p] = s.Range(win[0], min(win[1], times[id][p]))
			}
		}
	}
	isPrefix := func(w, id int, d float64) bool {
		ref := want[w][id]
		p, _ := slices.BinarySearch(ref, d*(1-1e-12))
		for ; p < len(ref) && ref[p] <= d*(1+1e-12); p++ {
			if math.Abs(ref[p]-d) <= 1e-12*d {
				return true
			}
		}
		return d == 0 && ref[0] == 0
	}

	tb := NewTable(flatFrontier(series, 0, 1), 0)
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				w := (i + r) % len(windows)
				tb.CollectRange(windows[w][0], windows[w][1], func(id int, d float64) {
					if !isPrefix(w, id, d) {
						t.Errorf("CollectRange window %v: series %d delta %.17g is no prefix's", windows[w], id, d)
					}
				})
				id := i % series
				if d := tb.Delta(id, windows[w][0], windows[w][1]); !isPrefix(w, id, d) {
					t.Errorf("Delta window %v: series %d delta %.17g is no prefix's", windows[w], id, d)
				}
			}
		}(r)
	}
	for j := 1; j <= appends; j++ {
		for id := 0; id < series; id++ {
			if _, err := tb.Append(id, times[id][j], values[id][j]); err != nil {
				t.Error(err)
			}
		}
	}
	done.Store(true)
	wg.Wait()
	for id := 0; id < series; id++ {
		if d := tb.Delta(id, -1, math.Inf(1)); !near(d, want[0][id][appends]) {
			t.Fatalf("series %d: final delta %.17g, want %.17g", id, d, want[0][id][appends])
		}
	}
}

// BenchmarkTableCollectRange times the scan every latest-window merge
// makes, at two shapes: 750 single-segment runs (a table between
// compactions) and 1,024 segments spread over 2,000 series (the
// benchmark's memtable rung). Series' base frontiers spread over
// [100, 110). Both windows reach past every run's end; "cover" starts
// before every run, as a latest window does, and "inside" starts at
// 105, inside about half the runs.
func BenchmarkTableCollectRange(b *testing.B) {
	for _, tc := range []struct {
		name         string
		series, segs int
	}{
		{"runs=750", 750, 750},
		{"series=2000/segs=1024", 2000, 1024},
	} {
		rng := rand.New(rand.NewSource(1))
		base := make([]float64, tc.series)
		for id := range base {
			base[id] = 100 + 10*rng.Float64()
		}
		tb := NewTable(func(id int) (float64, float64, bool) {
			return base[id], 1, id >= 0 && id < tc.series
		}, 0)
		now := 110.0
		for i := 0; i < tc.segs; i++ {
			id := rng.Intn(tc.series)
			if tc.segs == tc.series {
				id = i
			}
			now += 0.01
			if _, err := tb.Append(id, now, 1+rng.Float64()); err != nil {
				b.Fatal(err)
			}
		}
		for _, w := range []struct {
			name string
			t1   float64
		}{{"cover", 99}, {"inside", 105}} {
			b.Run(tc.name+"/"+w.name, func(b *testing.B) {
				var sink float64
				add := func(_ int, d float64) { sink += d }
				for b.Loop() {
					tb.CollectRange(w.t1, now+1, add)
				}
				if sink == 0 {
					b.Fatal("no mass collected")
				}
			})
		}
	}
}

// TestCallbacksRunUnlocked runs every callback a Table invokes — the
// FrontierFunc and the f of CollectRange, CollectAt and All — while
// appends happen on the same goroutine, and fails if the table's writer
// mutex is held in any of them. A callback run under mu that took the
// root package's generation swap lock would invert the append path's
// lock order (swap lock, then mu).
func TestCallbacksRunUnlocked(t *testing.T) {
	const series = 64
	var tb *Table
	calls := make(map[string]int)
	unlocked := func(name string) {
		calls[name]++
		if !tb.mu.TryLock() {
			t.Fatalf("%s ran under the table's writer mutex", name)
		}
		tb.mu.Unlock()
	}
	tb = NewTable(func(id int) (float64, float64, bool) {
		unlocked("FrontierFunc")
		return 10, 1, id >= 0 && id < series
	}, 0)
	end := make([]float64, series)
	next := 0 // the next series without a run
	// grow appends a first segment to a new series and extends id's run.
	grow := func(id int) {
		if next < series {
			end[next] = 11
			if _, err := tb.Append(next, end[next], 1); err != nil {
				t.Fatal(err)
			}
			next++
		}
		end[id]++
		if _, err := tb.Append(id, end[id], 2); err != nil {
			t.Fatal(err)
		}
	}
	for next < 8 {
		grow(0)
	}
	tb.CollectRange(10, 11, func(id int, _ float64) { unlocked("CollectRange"); grow(id) })
	tb.CollectAt(10.5, func(id int, _ float64) { unlocked("CollectAt"); grow(id) })
	tb.All(func(id int, _, _ []float64) { unlocked("All"); grow(id) })
	for _, name := range []string{"FrontierFunc", "CollectRange", "CollectAt", "All"} {
		if calls[name] == 0 {
			t.Errorf("%s never ran", name)
		}
	}
}
