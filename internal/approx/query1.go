package approx

import (
	"encoding/binary"
	"errors"
	"fmt"

	"temporalrank/internal/blockio"
	"temporalrank/internal/bptree"
	"temporalrank/internal/breakpoint"
	"temporalrank/internal/topk"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

// lowerValueSize holds a packed listRef (padded to 16 bytes).
const lowerValueSize = 16

// topValueSize: index of the lower tree for a left breakpoint.
const topValueSize = 4

// Query1 is the nested-B+-tree structure: a top-level tree keyed by the
// left breakpoint B(t1) whose entries point to per-breakpoint lower
// trees keyed by the right breakpoint B(t2); each lower-tree entry
// references the materialized top-kmax list of the snapped interval.
// (ε,1)-approximate for both aggregate scores and top-k sets.
type Query1 struct {
	dev   blockio.Device
	bps   *breakpoint.Set
	kmax  int
	ttop  *bptree.Tree
	lower []*bptree.Tree
}

// BuildQuery1 materializes all r(r+1)/2 snapped intervals. Each list
// is the top-kmax of one difference of two prefix columns
// (prefixColumns), selected with topk.Collect's threshold skip: the
// same lists, and the same page bytes, as offering all m scores of each
// interval to a collector.
func BuildQuery1(dev blockio.Device, ds *tsdata.Dataset, bps *breakpoint.Set, kmax int) (*Query1, error) {
	if kmax < 1 {
		return nil, fmt.Errorf("approx: kmax must be >= 1, got %d", kmax)
	}
	if err := bps.Validate(); err != nil {
		return nil, err
	}
	r := bps.R()
	lists := newListPicker(ds, bps.Times, kmax)
	packer, err := newListPacker(dev)
	if err != nil {
		return nil, err
	}

	q := &Query1{dev: dev, bps: bps, kmax: kmax, lower: make([]*bptree.Tree, r)}
	topEntries := make([]bptree.Entry, r)
	for j := 0; j < r; j++ {
		lowerEntries := make([]bptree.Entry, 0, r-j)
		for jp := j; jp < r; jp++ {
			ref := listRef{head: blockio.InvalidPage}
			if jp > j {
				ref, err = packer.Put(lists.pick(j, jp))
				if err != nil {
					return nil, err
				}
			}
			v := make([]byte, lowerValueSize)
			ref.encode(v)
			lowerEntries = append(lowerEntries, bptree.Entry{Key: bps.Times[jp], Value: v})
		}
		lt, err := bptree.BulkLoad(dev, lowerValueSize, lowerEntries)
		if err != nil {
			return nil, fmt.Errorf("approx: query1 lower tree %d: %w", j, err)
		}
		q.lower[j] = lt
		tv := make([]byte, topValueSize)
		binary.LittleEndian.PutUint32(tv, uint32(j))
		topEntries[j] = bptree.Entry{Key: bps.Times[j], Value: tv}
	}
	if err := packer.Flush(); err != nil {
		return nil, err
	}
	tt, err := bptree.BulkLoad(dev, topValueSize, topEntries)
	if err != nil {
		return nil, fmt.Errorf("approx: query1 top tree: %w", err)
	}
	q.ttop = tt
	return q, nil
}

// KMax returns the largest supported k.
func (q *Query1) KMax() int { return q.kmax }

// Breakpoints returns the underlying breakpoint set.
func (q *Query1) Breakpoints() *breakpoint.Set { return q.bps }

// TopK answers the approximate query by snapping [t1,t2] to
// [B(t1),B(t2)] through the two tree levels and reading the
// materialized list. k must be <= kmax. Its page reads are added to the
// device's total once, when it ends.
func (q *Query1) TopK(k int, t1, t2 float64) ([]topk.Item, error) {
	var ios blockio.IOCount
	items, err := q.topK(k, t1, t2, &ios)
	ios.Fold(q.dev)
	return items, err
}

// topK is TopK charging its page views to ios.
func (q *Query1) topK(k int, t1, t2 float64, ios *blockio.IOCount) ([]topk.Item, error) {
	if err := validateQuery(t1, t2); err != nil {
		return nil, err
	}
	if k > q.kmax {
		return nil, fmt.Errorf("approx: %w: k=%d kmax=%d", trerr.ErrKTooLarge, k, q.kmax)
	}
	// Snap through the top-level tree: first breakpoint >= t1 (clamped
	// to the last breakpoint when t1 exceeds the domain).
	cur, err := q.ttop.SearchCeilCounted(t1, ios)
	if errors.Is(err, bptree.ErrNotFound) {
		return nil, nil // snapped interval is empty: no scored objects
	}
	if err != nil {
		return nil, err
	}
	j := int(binary.LittleEndian.Uint32(cur.Value()))
	cur.Close()
	// Snap t2 through the lower tree of b_j.
	lc, err := q.lower[j].SearchCeilCounted(t2, ios)
	if errors.Is(err, bptree.ErrNotFound) {
		// B(t2) beyond the last breakpoint: snap down to the last one
		// (the paper assumes [t1,t2] ⊆ [0,T]; we clamp for robustness).
		_, v, lerr := q.lower[j].Last(ios)
		if lerr != nil {
			return nil, lerr
		}
		return readList(q.dev, decodeListRef(v), k, ios)
	}
	if err != nil {
		return nil, err
	}
	ref := decodeListRef(lc.Value())
	lc.Close()
	return readList(q.dev, ref, k, ios)
}
