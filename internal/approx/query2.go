package approx

import (
	"fmt"
	"sync"

	"temporalrank/internal/blockio"
	"temporalrank/internal/breakpoint"
	"temporalrank/internal/topk"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

// Query2 is the dyadic-interval structure: a balanced binary tree over
// the r-1 elementary breakpoint gaps; each node materializes the
// top-kmax list of its spanned interval [b_lo, b_hi]. Any snapped query
// interval decomposes into at most 2·log r node intervals whose lists
// are merged by summing scores per object — the (ε, 2·log r)-
// approximation of Lemma 4/5, with Θ(r·kmax/B) space.
type Query2 struct {
	dev  blockio.Device
	bps  *breakpoint.Set
	kmax int
	m    int // series count: list entries name ids below it

	// Node directory (in memory, O(r); the lists live on the device —
	// the paper likewise keeps its binary tree over B resident while
	// charging IO for the top-k lists).
	nodes []dyadicNode
	root  int
}

type dyadicNode struct {
	lo, hi      int // gap range [lo, hi): covers time [b_lo, b_hi]
	left, right int // children node indices, -1 for leaves
	list        listRef
}

// BuildQuery2 materializes the O(r) dyadic interval lists, in
// pre-order. Each list is the top-kmax of one difference of two prefix
// columns (prefixColumns), selected with topk.Collect's threshold skip:
// the same lists, and the same page bytes, as offering all m scores of
// each interval to a collector. The m × r prefixes take one forward
// walk per object, and every list is selected on the calling
// goroutine.
func BuildQuery2(dev blockio.Device, ds *tsdata.Dataset, bps *breakpoint.Set, kmax int) (*Query2, error) {
	if kmax < 1 {
		return nil, fmt.Errorf("approx: kmax must be >= 1, got %d", kmax)
	}
	if err := bps.Validate(); err != nil {
		return nil, err
	}
	lists := newListPicker(ds, bps.Times, kmax)
	m := ds.NumSeries()
	packer, err := newListPacker(dev)
	if err != nil {
		return nil, err
	}
	q := &Query2{dev: dev, bps: bps, kmax: kmax, m: m}

	var build func(lo, hi int) (int, error)
	build = func(lo, hi int) (int, error) {
		idx := len(q.nodes)
		q.nodes = append(q.nodes, dyadicNode{lo: lo, hi: hi, left: -1, right: -1})
		// Materialize this node's top-kmax list over [b_lo, b_hi].
		ref, err := packer.Put(lists.pick(lo, hi))
		if err != nil {
			return 0, err
		}
		q.nodes[idx].list = ref
		if hi-lo > 1 {
			mid := (lo + hi) / 2
			l, err := build(lo, mid)
			if err != nil {
				return 0, err
			}
			rr, err := build(mid, hi)
			if err != nil {
				return 0, err
			}
			q.nodes[idx].left = l
			q.nodes[idx].right = rr
		}
		return idx, nil
	}
	root, err := build(0, bps.R()-1)
	if err != nil {
		return nil, err
	}
	if err := packer.Flush(); err != nil {
		return nil, err
	}
	q.root = root
	return q, nil
}

// KMax returns the largest supported k.
func (q *Query2) KMax() int { return q.kmax }

// Breakpoints returns the underlying breakpoint set.
func (q *Query2) Breakpoints() *breakpoint.Set { return q.bps }

// NumNodes returns the number of dyadic intervals (diagnostics; < 2r).
func (q *Query2) NumNodes() int { return len(q.nodes) }

// maxCoverStack bounds the walk's explicit stack. The walk pushes at
// most one pending right child per level above the current node, and a
// dyadic tree over fewer than 2^62 gaps is shallower than that.
const maxCoverStack = 64

// cover hands the canonical node cover of gap range [a, b) — at most
// 2·log r nodes — to visit, left to right, walking the directory with a
// fixed stack. The order matters: merged sums are then added in the
// same order on every call.
func (q *Query2) cover(a, b int, visit func(n int) error) error {
	if a >= b {
		return nil
	}
	var stack [maxCoverStack]int
	stack[0] = q.root
	for sp := 1; sp > 0; {
		sp--
		n := stack[sp]
		node := &q.nodes[n]
		if a <= node.lo && node.hi <= b {
			if err := visit(n); err != nil {
				return err
			}
			continue
		}
		if node.left < 0 {
			continue
		}
		mid := (node.lo + node.hi) / 2
		if sp+2 > len(stack) {
			return fmt.Errorf("approx: dyadic directory deeper than %d levels", maxCoverStack)
		}
		// Push right before left, so the left subtree is walked first.
		if b > mid {
			stack[sp] = node.right
			sp++
		}
		if a < mid {
			stack[sp] = node.left
			sp++
		}
	}
	return nil
}

// TopK answers the approximate query: snap, decompose into dyadic
// nodes, merge their top-kmax lists by summing per-object scores, and
// return the k best of the candidate set K (|K| <= 2k·log r). Its page
// reads are added to the device's total once, when it ends.
func (q *Query2) TopK(k int, t1, t2 float64) ([]topk.Item, error) {
	var ios blockio.IOCount
	items, err := q.topK(k, t1, t2, &ios)
	ios.Fold(q.dev)
	return items, err
}

// topK is TopK charging its page views to ios.
func (q *Query2) topK(k int, t1, t2 float64, ios *blockio.IOCount) ([]topk.Item, error) {
	acc, err := q.candidates(k, t1, t2, ios)
	if err != nil {
		return nil, err
	}
	defer acc.release()
	c := topk.GetCollector(k)
	defer c.Release()
	for _, id := range acc.touched {
		c.Add(id, acc.sums[id])
	}
	return c.Results(), nil
}

// candidates merges the candidate set K for a query into a pooled
// accumulator: for each object in K, its summed score over the covering
// dyadic intervals. APPX2 ranks K by these sums; APPX2+ rescores K
// exactly. The list pages' views are charged to ios. The caller
// releases the accumulator.
func (q *Query2) candidates(k int, t1, t2 float64, ios *blockio.IOCount) (*mergeAcc, error) {
	if err := validateQuery(t1, t2); err != nil {
		return nil, err
	}
	if k > q.kmax {
		return nil, fmt.Errorf("approx: %w: k=%d kmax=%d", trerr.ErrKTooLarge, k, q.kmax)
	}
	_, a := q.bps.Snap(t1)
	_, b := q.bps.Snap(t2)
	acc := getMergeAcc(q.m)
	add := func(id tsdata.SeriesID, score float64) error {
		if id < 0 || int(id) >= q.m {
			return fmt.Errorf("approx: list entry for series %d of %d", id, q.m)
		}
		acc.add(id, score)
		return nil
	}
	err := q.cover(a, b, func(n int) error {
		return walkList(q.dev, q.nodes[n].list, k, ios, add)
	})
	if err != nil {
		acc.release()
		return nil, err
	}
	return acc, nil
}

// mergeAcc accumulates one query's candidate merge without a map: a
// dense score per object, a bitmap of the objects seen, and the seen
// ids in first-seen order. Only touched entries are ever dirty, so a
// reset walks touched instead of all m objects.
type mergeAcc struct {
	sums    []float64
	seen    []uint64
	touched []tsdata.SeriesID
}

// mergeAccPool recycles accumulators across queries. A pooled
// accumulator sized for a larger m serves a smaller one unchanged.
var mergeAccPool = sync.Pool{New: func() any { return new(mergeAcc) }}

// getMergeAcc returns an empty pooled accumulator for m objects.
func getMergeAcc(m int) *mergeAcc {
	acc := mergeAccPool.Get().(*mergeAcc)
	if len(acc.sums) < m {
		acc.sums = make([]float64, m)
		acc.seen = make([]uint64, (m+63)/64)
	}
	return acc
}

// add sums score into id's entry.
func (acc *mergeAcc) add(id tsdata.SeriesID, score float64) {
	w, bit := id>>6, uint64(1)<<(id&63)
	if acc.seen[w]&bit == 0 {
		acc.seen[w] |= bit
		acc.sums[id] = 0
		acc.touched = append(acc.touched, id)
	}
	acc.sums[id] += score
}

// has reports whether id is in the candidate set.
func (acc *mergeAcc) has(id tsdata.SeriesID) bool {
	return acc.seen[id>>6]&(uint64(1)<<(id&63)) != 0
}

// release clears the touched entries and returns acc to the pool.
func (acc *mergeAcc) release() {
	for _, id := range acc.touched {
		acc.seen[id>>6] = 0
	}
	acc.touched = acc.touched[:0]
	mergeAccPool.Put(acc)
}
