package topk

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"temporalrank/internal/tsdata"
)

func TestCollectorBasic(t *testing.T) {
	c := NewCollector(3)
	scores := []float64{5, 1, 9, 3, 7, 2}
	for i, s := range scores {
		c.Add(tsdata.SeriesID(i), s)
	}
	got := c.Results()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	want := []float64{9, 7, 5}
	for i, it := range got {
		if it.Score != want[i] {
			t.Errorf("rank %d score = %g, want %g", i, it.Score, want[i])
		}
	}
}

func TestCollectorFewerThanK(t *testing.T) {
	c := NewCollector(10)
	c.Add(0, 1)
	c.Add(1, 2)
	got := c.Results()
	if len(got) != 2 {
		t.Fatalf("len = %d, want 2", len(got))
	}
	if got[0].Score != 2 || got[1].Score != 1 {
		t.Errorf("results %v", got)
	}
	if _, ok := c.Threshold(); ok {
		t.Error("Threshold available before k items")
	}
}

func TestCollectorThreshold(t *testing.T) {
	c := NewCollector(2)
	c.Add(0, 5)
	c.Add(1, 3)
	th, ok := c.Threshold()
	if !ok || th != 3 {
		t.Errorf("Threshold = (%g,%v), want (3,true)", th, ok)
	}
	c.Add(2, 4)
	th, _ = c.Threshold()
	if th != 4 {
		t.Errorf("Threshold after improvement = %g, want 4", th)
	}
}

func TestCollectorTieBreaksByID(t *testing.T) {
	c := NewCollector(2)
	c.Add(5, 1)
	c.Add(3, 1)
	c.Add(9, 1)
	got := c.Results()
	if got[0].ID != 3 || got[1].ID != 5 {
		t.Errorf("tie-break wrong: %v (want IDs 3,5)", got)
	}
}

func TestCollectorKBelowOne(t *testing.T) {
	c := NewCollector(0)
	if c.K() != 1 {
		t.Errorf("K = %d, want clamp to 1", c.K())
	}
	c.Add(1, 10)
	c.Add(2, 20)
	got := c.Results()
	if len(got) != 1 || got[0].ID != 2 {
		t.Errorf("results %v", got)
	}
}

// Property: collector matches full sort + truncate for random inputs.
func TestCollectorMatchesSortProperty(t *testing.T) {
	f := func(seed int64, rawK uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(rawK)%20 + 1
		n := 1 + rng.Intn(300)
		items := make([]Item, n)
		c := NewCollector(k)
		for i := range items {
			// Coarse scores force plenty of ties.
			s := float64(rng.Intn(40))
			items[i] = Item{ID: tsdata.SeriesID(i), Score: s}
			c.Add(tsdata.SeriesID(i), s)
		}
		SortItems(items)
		want := items
		if len(want) > k {
			want = want[:k]
		}
		got := c.Results()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSortItemsStableOrder(t *testing.T) {
	items := []Item{{ID: 2, Score: 1}, {ID: 1, Score: 1}, {ID: 0, Score: 5}}
	SortItems(items)
	wantIDs := []tsdata.SeriesID{0, 1, 2}
	for i, it := range items {
		if it.ID != wantIDs[i] {
			t.Errorf("pos %d ID = %d, want %d", i, it.ID, wantIDs[i])
		}
	}
}

// TestMergeMatchesGlobalCollector: partitioning items arbitrarily,
// collecting per partition and merging must equal one global collector —
// the invariant the sharded Cluster relies on.
func TestMergeMatchesGlobalCollector(t *testing.T) {
	f := func(seed int64, rawK uint8, rawParts uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(rawK)%20 + 1
		parts := int(rawParts)%8 + 1
		n := 1 + rng.Intn(300)
		global := NewCollector(k)
		colls := make([]*Collector, parts)
		for p := range colls {
			colls[p] = NewCollector(k)
		}
		for i := 0; i < n; i++ {
			// Coarse scores force cross-partition ties.
			s := float64(rng.Intn(25))
			global.Add(tsdata.SeriesID(i), s)
			colls[rng.Intn(parts)].Add(tsdata.SeriesID(i), s)
		}
		lists := make([][]Item, parts)
		for p, c := range colls {
			lists[p] = c.Results()
		}
		got := Merge(k, lists...)
		want := global.Results()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMergeDuplicateScores is the regression test for deterministic
// tie-breaking: equal scores scattered across partitions must come back
// ordered by ascending ID no matter how the partitions were formed.
func TestMergeDuplicateScores(t *testing.T) {
	splits := [][][]Item{
		{{{ID: 4, Score: 7}, {ID: 1, Score: 2}}, {{ID: 0, Score: 7}, {ID: 3, Score: 7}}, {{ID: 2, Score: 7}}},
		{{{ID: 0, Score: 7}, {ID: 1, Score: 2}}, {{ID: 2, Score: 7}, {ID: 3, Score: 7}, {ID: 4, Score: 7}}},
		{{{ID: 0, Score: 7}, {ID: 2, Score: 7}, {ID: 3, Score: 7}, {ID: 4, Score: 7}, {ID: 1, Score: 2}}},
	}
	want := []Item{{ID: 0, Score: 7}, {ID: 2, Score: 7}, {ID: 3, Score: 7}, {ID: 4, Score: 7}}
	for i, lists := range splits {
		got := Merge(4, lists...)
		if len(got) != len(want) {
			t.Fatalf("split %d: len = %d, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("split %d rank %d = %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
}

func TestMergeEdgeCases(t *testing.T) {
	if got := Merge(3); len(got) != 0 {
		t.Errorf("no lists: %v, want empty", got)
	}
	if got := Merge(3, nil, []Item{}); len(got) != 0 {
		t.Errorf("empty lists: %v, want empty", got)
	}
	one := []Item{{ID: 1, Score: 5}, {ID: 2, Score: 3}}
	if got := Merge(0, one); len(got) != 1 || got[0].ID != 1 {
		t.Errorf("k clamp: %v, want just ID 1", got)
	}
	// k larger than the union: everything comes back, still ordered.
	got := Merge(10, []Item{{ID: 1, Score: 5}}, []Item{{ID: 0, Score: 5}})
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Errorf("k beyond union: %v", got)
	}
}

func TestPrecisionRecall(t *testing.T) {
	exact := []Item{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}}
	approx := []Item{{ID: 2}, {ID: 3}, {ID: 9}, {ID: 1}}
	if got := PrecisionRecall(approx, exact); got != 0.75 {
		t.Errorf("PrecisionRecall = %g, want 0.75", got)
	}
	if got := PrecisionRecall(exact, exact); got != 1 {
		t.Errorf("self PrecisionRecall = %g, want 1", got)
	}
	if got := PrecisionRecall(nil, exact); got != 0 {
		t.Errorf("empty approx = %g, want 0", got)
	}
	if got := PrecisionRecall(nil, nil); got != 1 {
		t.Errorf("both empty = %g, want 1", got)
	}
}

func TestApproxRatio(t *testing.T) {
	truth := map[tsdata.SeriesID]float64{1: 10, 2: 20, 3: 0}
	lookup := func(id tsdata.SeriesID) float64 { return truth[id] }
	approx := []Item{{ID: 1, Score: 11}, {ID: 2, Score: 18}}
	got := ApproxRatio(approx, lookup)
	want := (11.0/10 + 18.0/20) / 2
	if got != want {
		t.Errorf("ApproxRatio = %g, want %g", got, want)
	}
	// Zero-truth items are skipped.
	if got := ApproxRatio([]Item{{ID: 3, Score: 5}}, lookup); got != 1 {
		t.Errorf("all-zero-truth ratio = %g, want 1", got)
	}
}

func TestRankwiseError(t *testing.T) {
	a := []Item{{Score: 10}, {Score: 5}}
	b := []Item{{Score: 9}, {Score: 8}}
	if got := RankwiseError(a, b); got != 3 {
		t.Errorf("RankwiseError = %g, want 3", got)
	}
	if got := RankwiseError(nil, b); got != 0 {
		t.Errorf("empty = %g, want 0", got)
	}
}

// Property: the retained set always contains the global maximum.
func TestCollectorKeepsMaxProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCollector(1 + rng.Intn(5))
		n := 1 + rng.Intn(100)
		best := Item{ID: -1}
		first := true
		for i := 0; i < n; i++ {
			it := Item{ID: tsdata.SeriesID(i), Score: rng.NormFloat64() * 100}
			if first || less(best, it) {
				best = it
				first = false
			}
			c.Add(it.ID, it.Score)
		}
		res := c.Results()
		return len(res) > 0 && res[0] == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestResultsDoesNotDrainCollector(t *testing.T) {
	c := NewCollector(2)
	c.Add(0, 1)
	c.Add(1, 2)
	r1 := c.Results()
	c.Add(2, 3)
	r2 := c.Results()
	if len(r1) != 2 || len(r2) != 2 {
		t.Fatal("collector drained by Results")
	}
	if r2[0].Score != 3 {
		t.Error("collector stopped accepting after Results")
	}
	if !sort.SliceIsSorted(r2, func(a, b int) bool { return r2[a].Score > r2[b].Score }) {
		t.Error("results not sorted")
	}
}

// permutations returns every ordering of n list indices.
func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for pos := 0; pos <= len(sub); pos++ {
			p := make([]int, 0, n)
			p = append(p, sub[:pos]...)
			p = append(p, n-1)
			p = append(p, sub[pos:]...)
			out = append(out, p)
		}
	}
	return out
}

// TestMergeDuplicateScoresOrderIndependent models network reordering
// in the distributed tier: per-shard top-k lists carrying many
// duplicate scores arrive at the router in arbitrary order, and the
// merged global list must be identical for EVERY arrival order — the
// deterministic ascending-global-ID tie-break cannot depend on which
// shard answered first.
func TestMergeDuplicateScoresOrderIndependent(t *testing.T) {
	// Scores drawn from a tiny set so cross-list duplicates are the
	// common case, not the corner case.
	scorePool := []float64{9, 7, 7, 7, 4, 4, 1}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		numLists := 2 + rng.Intn(3) // 2..4 lists: all orders checked below
		lists := make([][]Item, numLists)
		var all []Item
		nextID := tsdata.SeriesID(0)
		for i := range lists {
			n := 1 + rng.Intn(6)
			for j := 0; j < n; j++ {
				it := Item{ID: nextID, Score: scorePool[rng.Intn(len(scorePool))]}
				nextID++
				lists[i] = append(lists[i], it)
				all = append(all, it)
			}
			SortItems(lists[i])
		}
		k := 1 + rng.Intn(len(all))
		// Reference: a single node's answer — global sort, first k.
		want := make([]Item, len(all))
		copy(want, all)
		SortItems(want)
		if len(want) > k {
			want = want[:k]
		}
		for _, perm := range permutations(numLists) {
			shuffled := make([][]Item, numLists)
			for pos, idx := range perm {
				shuffled[pos] = lists[idx]
			}
			got := Merge(k, shuffled...)
			if len(got) != len(want) {
				t.Fatalf("trial %d perm %v: %d items, want %d", trial, perm, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("trial %d perm %v rank %d: got (%d, %g), want (%d, %g) — merge depends on list arrival order",
						trial, perm, j, got[j].ID, got[j].Score, want[j].ID, want[j].Score)
				}
			}
		}
	}
}

// randomItems draws n items with distinct IDs and heavily tied scores.
func randomItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i, id := range rng.Perm(n) {
		items[i] = Item{ID: tsdata.SeriesID(id), Score: float64(rng.Intn(8))}
	}
	return items
}

// referenceSortItems is SortItems as it was before it became one
// slices.SortFunc call: an insertion sort for up to 64 items, sort.Slice
// above that.
func referenceSortItems(items []Item) {
	if len(items) <= 64 {
		for i := 1; i < len(items); i++ {
			for j := i; j > 0 && less(items[j-1], items[j]); j-- {
				items[j-1], items[j] = items[j], items[j-1]
			}
		}
		return
	}
	sort.Slice(items, func(a, b int) bool { return less(items[b], items[a]) })
}

// TestSortItemsMatchesReference: on tied scores, at every length either
// side of the old insertion-sort cutoff, SortItems orders exactly as the
// two-path sort it replaced.
func TestSortItemsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 300; n++ {
		got := randomItems(rng, n)
		want := append([]Item(nil), got...)
		SortItems(got)
		referenceSortItems(want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("len %d: position %d is %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

// Collect's threshold skip returns what offering every score would.
func TestCollectTopKMatchesPlainCollector(t *testing.T) {
	plain := func(k int, scores []float64) []Item {
		c := NewCollector(k)
		for i, s := range scores {
			c.Add(tsdata.SeriesID(i), s)
		}
		return c.Results()
	}
	same := func(a, b []Item) bool {
		return slices.EqualFunc(a, b, func(x, y Item) bool {
			return x.ID == y.ID && math.Float64bits(x.Score) == math.Float64bits(y.Score)
		})
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string][]float64{
		"ties":      {3, 1, 3, 2, 3, 3, 1, 2, 3, 0, 3},
		"nan":       {nan, 2, 5, nan, 1, 5, nan, 7, nan},
		"nan-first": {nan, nan, nan, 1, 2, 3},
		"inf":       {-inf, inf, 0, -inf, inf, 1, -1, inf, -inf},
		"mixed":     {0, -0.0, nan, inf, -inf, 0, 4, 4, nan, -inf},
		"empty":     {},
	}
	rng := rand.New(rand.NewSource(1))
	rnd := make([]float64, 500)
	for i := range rnd {
		rnd[i] = float64(rng.Intn(20))
	}
	cases["random-ties"] = rnd
	for name, scores := range cases {
		for _, k := range []int{1, 2, 3, 5, len(scores), len(scores) + 3} {
			if got, want := Collect(k, scores), plain(k, scores); !same(got, want) {
				t.Errorf("%s k=%d: got %v, want %v", name, k, got, want)
			}
		}
	}
}
