// Package topk provides bounded top-k selection and the ranking-quality
// metrics used in the paper's evaluation (§5): precision/recall between
// an approximate and an exact top-k set, and the average approximation
// ratio σ̃_i(t1,t2)/σ_i(t1,t2) over returned objects.
package topk

import (
	"container/heap"
	"slices"
	"sync"

	"temporalrank/internal/tsdata"
)

// Item is a scored object.
type Item struct {
	ID    tsdata.SeriesID
	Score float64
}

// Collector selects the k items with the largest scores using a
// size-bounded min-heap (the paper's "priority queue of size k").
// Ties on score break toward the smaller ID so results are
// deterministic across methods.
type Collector struct {
	k     int
	items minHeap
}

// NewCollector creates a collector for the top k items (k >= 1).
func NewCollector(k int) *Collector {
	if k < 1 {
		k = 1
	}
	return &Collector{k: k, items: make(minHeap, 0, k+1)}
}

// collectorPool recycles collectors across queries: every query on the
// hot read path builds one size-k heap, and under concurrent serving
// load those heap allocations are pure churn. Get/Release pair around a
// single query's lifetime.
var collectorPool = sync.Pool{New: func() any { return new(Collector) }}

// GetCollector returns a pooled collector reset for the top k items.
// Release it with Release once its Results have been copied out.
func GetCollector(k int) *Collector {
	c := collectorPool.Get().(*Collector)
	c.Reset(k)
	return c
}

// Reset empties the collector and re-arms it for k, keeping the backing
// array when it is large enough.
func (c *Collector) Reset(k int) {
	if k < 1 {
		k = 1
	}
	c.k = k
	if cap(c.items) < k+1 {
		c.items = make(minHeap, 0, k+1)
	} else {
		c.items = c.items[:0]
	}
}

// Release returns the collector to the pool. The collector must not be
// used afterwards; Results() output remains valid (it is always a
// copy).
func (c *Collector) Release() { collectorPool.Put(c) }

// K returns the configured bound.
func (c *Collector) K() int { return c.k }

// Add offers an item; it is retained only if it ranks in the current
// top k. The sift operations are hand-rolled rather than delegated to
// container/heap: heap.Push/Fix take interface{} and box every Item,
// which on the serving path means k heap allocations per query.
func (c *Collector) Add(id tsdata.SeriesID, score float64) {
	it := Item{ID: id, Score: score}
	if len(c.items) < c.k {
		c.items = append(c.items, it)
		c.items.siftUp(len(c.items) - 1)
		return
	}
	if less(c.items[0], it) {
		c.items[0] = it
		c.items.siftDown(0)
	}
}

// siftUp restores the min-heap property after appending at i.
func (h minHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the min-heap property after replacing the root.
func (h minHeap) siftDown(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		small := left
		if right := left + 1; right < n && less(h[right], h[left]) {
			small = right
		}
		if !less(h[small], h[i]) {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// Threshold returns the smallest retained score (the k-th best so
// far), or -Inf semantics via ok=false when fewer than k items are
// held.
func (c *Collector) Threshold() (float64, bool) {
	if len(c.items) < c.k {
		return 0, false
	}
	return c.items[0].Score, true
}

// Len returns the number of retained items (<= k).
func (c *Collector) Len() int { return len(c.items) }

// Results returns the retained items ordered by descending score
// (ties: ascending ID). The collector remains usable.
func (c *Collector) Results() []Item {
	out := make([]Item, len(c.items))
	copy(out, c.items)
	SortItems(out)
	return out
}

// Collect returns the top k of scores, scores[i] being object i's, in
// Results order: what offering every score to a Collector in id order
// returns. Once k items are held, a score is offered only when it beats
// the heap's minimum: ids arrive in ascending order, so an equal score
// would lose its tie to the held item, and a NaN is refused either
// way. The collector is pooled. Every exact method's final step and
// every approximate index's list selection runs through it.
func Collect(k int, scores []float64) []Item {
	c := GetCollector(k)
	defer c.Release()
	i := 0
	for ; i < len(scores) && c.Len() < c.K(); i++ {
		c.Add(tsdata.SeriesID(i), scores[i])
	}
	if i < len(scores) {
		thr, _ := c.Threshold()
		for ; i < len(scores); i++ {
			if s := scores[i]; s > thr {
				c.Add(tsdata.SeriesID(i), s)
				thr, _ = c.Threshold()
			}
		}
	}
	return c.Results()
}

// SortItems orders items by descending score, ties by ascending ID.
func SortItems(items []Item) {
	slices.SortFunc(items, func(a, b Item) int {
		switch {
		case less(b, a):
			return -1
		case less(a, b):
			return 1
		}
		return 0
	})
}

// less is the heap ordering: a ranks strictly below b.
func less(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// minHeap is a size-bounded min-heap maintained by siftUp/siftDown
// (deliberately not a container/heap.Interface; see Collector.Add).
type minHeap []Item

// --- k-way merge ------------------------------------------------------

// Merge k-way merges per-partition top-k lists into a global top-k.
// Every input list must already be in the package order (descending
// score, ties broken by ascending ID — what Collector.Results and
// SortItems produce), and the lists are assumed ID-disjoint (disjoint
// partitions of one object universe). The output is the best k items
// overall, in the same deterministic order, so merging the per-shard
// answers of a partitioned dataset yields exactly the list a single
// node would have produced.
func Merge(k int, lists ...[]Item) []Item {
	if k < 1 {
		k = 1
	}
	h := make(mergeHeap, 0, len(lists))
	for _, l := range lists {
		if len(l) > 0 {
			h = append(h, cursor{list: l})
		}
	}
	heap.Init(&h)
	out := make([]Item, 0, k)
	for len(out) < k && len(h) > 0 {
		c := &h[0]
		out = append(out, c.list[c.pos])
		c.pos++
		if c.pos == len(c.list) {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return out
}

// cursor is one partially-consumed input list of a Merge.
type cursor struct {
	list []Item
	pos  int
}

// mergeHeap orders cursors by their current head so the best-ranked
// head is always at the root.
type mergeHeap []cursor

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return less(h[j].list[h[j].pos], h[i].list[h[i].pos]) }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(cursor)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// --- quality metrics -------------------------------------------------

// PrecisionRecall returns |approx ∩ exact| / k. Since both sets have
// the same cardinality k, precision equals recall (as noted in §5).
func PrecisionRecall(approx, exact []Item) float64 {
	if len(exact) == 0 {
		return 1
	}
	set := make(map[tsdata.SeriesID]bool, len(exact))
	for _, it := range exact {
		set[it.ID] = true
	}
	hits := 0
	for _, it := range approx {
		if set[it.ID] {
			hits++
		}
	}
	return float64(hits) / float64(len(exact))
}

// ApproxRatio returns the average of σ̃_i/σ_i over the approximate
// result set, where trueScore supplies σ_i(t1,t2) for any object.
// Items whose true score is ~0 are skipped (the ratio is undefined);
// if every item is skipped the ratio is reported as exactly 1.
func ApproxRatio(approx []Item, trueScore func(tsdata.SeriesID) float64) float64 {
	var sum float64
	n := 0
	for _, it := range approx {
		exact := trueScore(it.ID)
		if exact == 0 {
			continue
		}
		sum += it.Score / exact
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// RankwiseError returns max_j |approxScore_j - exactScore_j| over
// ranks j — the quantity bounded by εM in Definition 2 (for α=1).
func RankwiseError(approx, exact []Item) float64 {
	n := len(approx)
	if len(exact) < n {
		n = len(exact)
	}
	var worst float64
	for j := 0; j < n; j++ {
		d := approx[j].Score - exact[j].Score
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}
