package approx

import (
	"errors"
	"math/rand"
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/breakpoint"
	"temporalrank/internal/topk"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

// Decompose returns the canonical node cover of gap range [a, b), in
// the order the merge walks it.
func (q *Query2) Decompose(a, b int) []int {
	var out []int
	if err := q.cover(a, b, func(n int) error { out = append(out, n); return nil }); err != nil {
		panic(err)
	}
	return out
}

// Candidates returns the merged candidate set K as a map: object ->
// summed score over the covering dyadic intervals.
func (q *Query2) Candidates(k int, t1, t2 float64) (map[tsdata.SeriesID]float64, error) {
	acc, err := q.candidates(k, t1, t2, nil)
	if err != nil {
		return nil, err
	}
	defer acc.release()
	out := make(map[tsdata.SeriesID]float64, len(acc.touched))
	for _, id := range acc.touched {
		out[id] = acc.sums[id]
	}
	return out, nil
}

// recursiveCover is the textbook recursive decomposition, kept as the
// reference the stack walk must reproduce node for node.
func recursiveCover(q *Query2, a, b int) []int {
	var out []int
	var rec func(n int)
	rec = func(n int) {
		node := q.nodes[n]
		if a <= node.lo && node.hi <= b {
			out = append(out, n)
			return
		}
		if node.left < 0 {
			return
		}
		mid := (node.lo + node.hi) / 2
		if a < mid {
			rec(node.left)
		}
		if b > mid {
			rec(node.right)
		}
	}
	if a < b {
		rec(q.root)
	}
	return out
}

// TestQuery2MergeMatchesMapMerge: the accumulator merge gives, bit for
// bit, the sums of a map merge over readList in recursive-cover order,
// and Query2.TopK ranks them as a collector over that map would.
func TestQuery2MergeMatchesMapMerge(t *testing.T) {
	ds := randomDataset(21, 50, 25, true)
	bps, err := breakpoint.Build2(ds, 0.004)
	if err != nil {
		t.Fatal(err)
	}
	dev := blockio.NewViewOnlyDevice(256)
	q, err := BuildQuery2(dev, ds, bps, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		t1, t2 := randomQuery(rng, ds)
		k := 1 + rng.Intn(12)
		_, a := bps.Snap(t1)
		_, b := bps.Snap(t2)
		nodes := recursiveCover(q, a, b)
		if got := q.Decompose(a, b); len(got) != len(nodes) {
			t.Fatalf("cover(%d,%d) = %v, recursive %v", a, b, got, nodes)
		} else {
			for i := range got {
				if got[i] != nodes[i] {
					t.Fatalf("cover(%d,%d) = %v, recursive %v", a, b, got, nodes)
				}
			}
		}
		want := map[tsdata.SeriesID]float64{}
		for _, n := range nodes {
			items, err := readList(dev, q.nodes[n].list, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range items {
				want[it.ID] += it.Score
			}
		}
		got, err := q.Candidates(k, t1, t2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d candidates, want %d", trial, len(got), len(want))
		}
		c := topk.NewCollector(k)
		for id, s := range want {
			if g, ok := got[id]; !ok || g != s {
				t.Fatalf("trial %d: series %d sum %g (present %v), want %g", trial, id, g, ok, s)
			}
			c.Add(id, s)
		}
		items, err := q.TopK(k, t1, t2)
		if err != nil {
			t.Fatal(err)
		}
		wantItems := c.Results()
		if len(items) != len(wantItems) {
			t.Fatalf("trial %d: TopK gave %d items, want %d", trial, len(items), len(wantItems))
		}
		for i := range items {
			if items[i] != wantItems[i] {
				t.Fatalf("trial %d rank %d: %v, want %v", trial, i, items[i], wantItems[i])
			}
		}
	}
}

// TestRestoreQuery2RejectsBadSplit: a directory whose children do not
// split their parent's span at its midpoint — a self-loop among them —
// is refused instead of walked.
func TestRestoreQuery2RejectsBadSplit(t *testing.T) {
	ds := randomDataset(23, 10, 10, false)
	bps, err := breakpoint.Build2(ds, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	dev := blockio.NewViewOnlyDevice(512)
	q, err := BuildQuery2(dev, ds, bps, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := q.State()
	if _, err := RestoreQuery2(dev, bps, ds.NumSeries(), st); err != nil {
		t.Fatalf("untouched state: %v", err)
	}
	bad := st
	bad.Nodes = append([]Query2Node(nil), st.Nodes...)
	root := bad.Nodes[bad.Root]
	if root.Left < 0 {
		t.Skip("single-node directory")
	}
	root.Left = bad.Root
	bad.Nodes[bad.Root] = root
	if _, err := RestoreQuery2(dev, bps, ds.NumSeries(), bad); !errors.Is(err, trerr.ErrBadSnapshot) {
		t.Fatalf("self-looped root: err = %v, want ErrBadSnapshot", err)
	}
}
