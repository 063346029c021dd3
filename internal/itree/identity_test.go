package itree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"temporalrank/internal/blockio"
)

// The reference below is the build as it stood before centers were
// picked by selection: a full sort of the 2n endpoints at every node, a
// fresh slice per child and per list, a fresh page buffer per node. The
// identity test holds Build to it, because a center that differs in one
// bit can move an interval to another node.

// referenceBuild is Build over the reference recursion.
func referenceBuild(dev blockio.Device, payloadSize int, intervals []Interval) (*Tree, error) {
	t := &Tree{dev: dev, payloadSize: payloadSize}
	t.listCap = (dev.BlockSize() - listHeaderSize) / (intervalSize + payloadSize)
	t.numIntervals = len(intervals)
	work := append([]Interval(nil), intervals...)
	root, height, err := t.referenceBuildNode(work, 0)
	if err != nil {
		return nil, err
	}
	t.root = root
	t.height = height
	return t, nil
}

func (t *Tree) referenceBuildNode(ivs []Interval, depth int) (blockio.PageID, int, error) {
	if len(ivs) == 0 {
		return blockio.InvalidPage, 0, nil
	}
	if depth > maxDepth {
		return blockio.InvalidPage, 0, fmt.Errorf("itree: degenerate recursion (depth %d, %d intervals)", depth, len(ivs))
	}
	center := referencePickCenter(ivs)
	var left, mid, right []Interval
	for _, iv := range ivs {
		switch {
		case iv.Hi <= center:
			left = append(left, iv)
		case iv.Lo > center:
			right = append(right, iv)
		default:
			mid = append(mid, iv)
		}
	}
	if len(mid) == 0 && (len(left) == len(ivs) || len(right) == len(ivs)) {
		return blockio.InvalidPage, 0, fmt.Errorf("itree: center %g did not split %d intervals", center, len(ivs))
	}

	leftPage, lh, err := t.referenceBuildNode(left, depth+1)
	if err != nil {
		return blockio.InvalidPage, 0, err
	}
	rightPage, rh, err := t.referenceBuildNode(right, depth+1)
	if err != nil {
		return blockio.InvalidPage, 0, err
	}

	// Lists: ascending lo, and descending hi.
	byLo := append([]Interval(nil), mid...)
	sort.Slice(byLo, func(a, b int) bool { return byLo[a].Lo < byLo[b].Lo })
	byHi := append([]Interval(nil), mid...)
	sort.Slice(byHi, func(a, b int) bool { return byHi[a].Hi > byHi[b].Hi })

	lHead, err := t.referenceWriteList(byLo)
	if err != nil {
		return blockio.InvalidPage, 0, err
	}
	rHead, err := t.referenceWriteList(byHi)
	if err != nil {
		return blockio.InvalidPage, 0, err
	}

	page, err := t.dev.Alloc()
	if err != nil {
		return blockio.InvalidPage, 0, err
	}
	buf := make([]byte, t.dev.BlockSize())
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(center))
	putPageID(buf[8:], leftPage)
	putPageID(buf[16:], rightPage)
	putPageID(buf[24:], lHead)
	binary.LittleEndian.PutUint32(buf[32:], uint32(len(mid)))
	putPageID(buf[36:], rHead)
	binary.LittleEndian.PutUint32(buf[44:], uint32(len(mid)))
	if err := t.dev.Write(page, buf); err != nil {
		return blockio.InvalidPage, 0, err
	}
	h := 1
	if lh+1 > h {
		h = lh + 1
	}
	if rh+1 > h {
		h = rh + 1
	}
	return page, h, nil
}

// referencePickCenter returns the midpoint of the two middle endpoints, which
// balances endpoint counts across children.
func referencePickCenter(ivs []Interval) float64 {
	eps := make([]float64, 0, 2*len(ivs))
	for _, iv := range ivs {
		eps = append(eps, iv.Lo, iv.Hi)
	}
	sort.Float64s(eps)
	k := len(eps) / 2
	return (eps[k-1] + eps[k]) / 2
}

// referenceWriteList serializes intervals into a chain of list pages, returning
// the head page (InvalidPage when empty). Page order preserves slice
// order so scan early-exit works.
func (t *Tree) referenceWriteList(ivs []Interval) (blockio.PageID, error) {
	if len(ivs) == 0 {
		return blockio.InvalidPage, nil
	}
	// Allocate pages first so each page can point at its successor.
	numPages := (len(ivs) + t.listCap - 1) / t.listCap
	pages := make([]blockio.PageID, numPages)
	for i := range pages {
		p, err := t.dev.Alloc()
		if err != nil {
			return blockio.InvalidPage, err
		}
		pages[i] = p
	}
	buf := make([]byte, t.dev.BlockSize())
	for pi := 0; pi < numPages; pi++ {
		start := pi * t.listCap
		end := start + t.listCap
		if end > len(ivs) {
			end = len(ivs)
		}
		for i := range buf {
			buf[i] = 0
		}
		binary.LittleEndian.PutUint16(buf[0:], uint16(end-start))
		next := blockio.InvalidPage
		if pi+1 < numPages {
			next = pages[pi+1]
		}
		putPageID(buf[2:], next)
		off := listHeaderSize
		for _, iv := range ivs[start:end] {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(iv.Lo))
			binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(iv.Hi))
			copy(buf[off+16:off+16+t.payloadSize], iv.Payload)
			off += intervalSize + t.payloadSize
		}
		if err := t.dev.Write(pages[pi], buf); err != nil {
			return blockio.InvalidPage, err
		}
	}
	return pages[0], nil
}

// nodeImage is one node as read back from its pages: the center and the
// intervals of its ascending-lo list, keyed for comparison as a
// multiset.
type nodeImage struct {
	center      uint64
	left, right blockio.PageID
	entries     []string
}

func readNode(t *testing.T, tr *Tree, page blockio.PageID) nodeImage {
	t.Helper()
	buf := make([]byte, tr.dev.BlockSize())
	readPage(t, tr.dev, page, buf)
	n := nodeImage{
		center: binary.LittleEndian.Uint64(buf[0:]),
		left:   getPageID(buf[8:]),
		right:  getPageID(buf[16:]),
	}
	for _, head := range []blockio.PageID{getPageID(buf[24:]), getPageID(buf[36:])} {
		var list []string
		for _, iv := range readList(t, tr, head) {
			list = append(list, fmt.Sprintf("%x:%x:%x", math.Float64bits(iv.Lo), math.Float64bits(iv.Hi), iv.Payload))
		}
		sort.Strings(list)
		// Both lists hold the same intervals; keep one, check the other.
		if n.entries != nil && !slices.Equal(n.entries, list) {
			t.Fatalf("node %d: lo list and hi list hold different intervals", page)
		}
		n.entries = list
	}
	return n
}

// sameSubtree walks both trees in step and fails at the first node
// whose center or interval multiset differs.
func sameSubtree(t *testing.T, got, want *Tree, gp, wp blockio.PageID, path string) {
	t.Helper()
	if (gp == blockio.InvalidPage) != (wp == blockio.InvalidPage) {
		t.Fatalf("node %s: present in one tree only", path)
	}
	if gp == blockio.InvalidPage {
		return
	}
	g, w := readNode(t, got, gp), readNode(t, want, wp)
	if g.center != w.center {
		t.Fatalf("node %s: center %v, reference %v", path, math.Float64frombits(g.center), math.Float64frombits(w.center))
	}
	if !slices.Equal(g.entries, w.entries) {
		t.Fatalf("node %s: %d intervals, reference %d, or not the same ones", path, len(g.entries), len(w.entries))
	}
	sameSubtree(t, got, want, g.left, w.left, path+"L")
	sameSubtree(t, got, want, g.right, w.right, path+"R")
}

// partitionIntervals is EXACT3's input shape: every object cuts one
// domain into about segs consecutive intervals starting at 0 (as
// gen.Temp's series do), with a sentinel before and after, so all the
// objects' sentinels share an endpoint.
func partitionIntervals(rng *rand.Rand, objects, segs, payloadSize int) []Interval {
	var ivs []Interval
	add := func(lo, hi float64) {
		p := make([]byte, payloadSize)
		binary.LittleEndian.PutUint32(p, uint32(len(ivs)))
		ivs = append(ivs, Interval{Lo: lo, Hi: hi, Payload: p})
	}
	for obj := 0; obj < objects; obj++ {
		t := 0.0
		add(-3, t)
		for seg := segs/2 + rng.Intn(segs); seg > 0; seg-- {
			next := t + 0.5 + rng.Float64()
			add(t, next)
			t = next
		}
		add(t, 4*float64(segs))
	}
	return ivs
}

// identityInputs are interval sets that stress the center: random
// overlap, per-object partitions of one domain with sentinels sharing
// endpoints (EXACT3's shape), heavy duplication, and sizes around the
// point where selection hands over to a sort. The larger partition set
// holds several times splitMin intervals, so that with more than one
// core Build decides its top subtrees on other goroutines.
func identityInputs() map[string][]Interval {
	rng := rand.New(rand.NewSource(22))
	in := make(map[string][]Interval)
	for _, n := range []int{1, 2, 3, 8, 9, 17, 18, 100, 5000} {
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := rng.Float64() * 100
			ivs[i] = Interval{Lo: lo, Hi: lo + rng.ExpFloat64()*5 + 1e-9, Payload: payload(uint32(i))}
		}
		in[fmt.Sprintf("random/%d", n)] = ivs
	}
	in["partitions"] = partitionIntervals(rng, 300, 20, 4)
	in["partitions/split"] = partitionIntervals(rng, 1500, 20, 4)
	var dup []Interval
	for i := 0; i < 2000; i++ {
		lo := float64(rng.Intn(5))
		dup = append(dup, Interval{Lo: lo, Hi: lo + 1 + float64(rng.Intn(3)), Payload: payload(uint32(i))})
	}
	in["duplicates"] = dup
	return in
}

func TestBuildIdenticalToReference(t *testing.T) {
	inputs := identityInputs()
	if n := len(inputs["partitions/split"]); n < 2*splitMin {
		t.Fatalf("%d intervals: too few for Build to split the tree between goroutines", n)
	}
	for name, ivs := range inputs {
		for _, bs := range []int{128, 4096} {
			gdev, wdev := blockio.NewViewOnlyDevice(bs), blockio.NewViewOnlyDevice(bs)
			got, err := Build(gdev, 4, ivs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceBuild(wdev, 4, ivs)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%s/bs=%d", name, bs)
			if got.Meta() != want.Meta() {
				t.Fatalf("%s: meta %+v, reference %+v", where, got.Meta(), want.Meta())
			}
			if gdev.NumPages() != wdev.NumPages() {
				t.Fatalf("%s: %d pages, reference %d", where, gdev.NumPages(), wdev.NumPages())
			}
			sameSubtree(t, got, want, got.root, want.root, where+"/")
			// Stronger than the index needs, and true today: the stable
			// partition and sort.Sort leave even tied entries in the
			// reference's order, so the page images are equal.
			gb, wb := make([]byte, bs), make([]byte, bs)
			for p := 0; p < gdev.NumPages(); p++ {
				readPage(t, gdev, blockio.PageID(p), gb)
				readPage(t, wdev, blockio.PageID(p), wb)
				if !bytes.Equal(gb, wb) {
					t.Fatalf("%s: page %d differs from the reference", where, p)
				}
			}
		}
	}
}

// TestSelectKth checks selection against a sort, on inputs that defeat
// a naive pivot (sorted, reversed, constant, few distinct values).
func TestSelectKth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := map[string]func(i, n int) float64{
		"random":   func(i, n int) float64 { return rng.Float64() },
		"sorted":   func(i, n int) float64 { return float64(i) },
		"reversed": func(i, n int) float64 { return float64(n - i) },
		"constant": func(i, n int) float64 { return 1 },
		"few":      func(i, n int) float64 { return float64(rng.Intn(3)) },
		"organ":    func(i, n int) float64 { return float64(min(i, n-i)) },
	}
	for name, f := range shapes {
		for _, n := range []int{1, 2, 16, 17, 18, 50, 1000} {
			a := make([]float64, n)
			for i := range a {
				a[i] = f(i, n)
			}
			want := slices.Clone(a)
			slices.Sort(want)
			for _, k := range []int{0, n / 3, n / 2, n - 1} {
				got := slices.Clone(a)
				selectKth(got, k)
				if got[k] != want[k] {
					t.Fatalf("%s n=%d k=%d: got %v want %v", name, n, k, got[k], want[k])
				}
				if k > 0 && slices.Max(got[:k]) > got[k] || slices.Min(got[k:]) < got[k] {
					t.Fatalf("%s n=%d k=%d: not partitioned around k", name, n, k)
				}
			}
		}
	}
}

// BenchmarkItreeBuild is the EXACT3 stage of an index build at the
// shard shape a compaction rebuilds (1,000 × 100, 28-byte payloads) and
// at the benchmark's D-large (8,000 × 100).
func BenchmarkItreeBuild(b *testing.B) {
	for _, sh := range []struct {
		name string
		m    int
	}{{"shard", 1000}, {"dlarge", 8000}} {
		b.Run(sh.name, func(b *testing.B) {
			ivs := partitionIntervals(rand.New(rand.NewSource(1)), sh.m, 100, 28)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Build(blockio.NewViewOnlyDevice(4096), 28, ivs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
