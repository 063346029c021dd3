// Package itree implements a static external-memory interval tree over
// a blockio.Device, supporting stabbing queries: given t, report every
// stored interval [lo, hi) that contains t.
//
// It is the substrate of the paper's best exact method, EXACT3 (§2,
// "Using one interval tree"): the I⁻ interval decomposition of all m
// objects is indexed in one structure, and a top-k(t1,t2,sum) query
// reduces to two stabbing queries that each return exactly one entry
// per object, in O(log_B N + m/B) IOs.
//
// The classic centered interval tree is used (intervals stored at the
// highest node whose center they contain, in two lists sorted by left
// endpoint ascending and right endpoint descending), serialized onto
// device pages: one page per node, plus chained list pages. This is a
// simplification of the Arge–Vitter external interval tree the paper
// cites — same static query-IO behaviour, simpler construction — which
// suffices because an EXACT3 index is never updated in place: appends
// buffer in the planner's memtable, and compaction builds a new tree
// over the grown data.
package itree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"

	"temporalrank/internal/blockio"
)

// Interval is a half-open interval [Lo, Hi) with an opaque fixed-size
// payload.
type Interval struct {
	Lo, Hi  float64
	Payload []byte
}

// Contains reports whether t ∈ [Lo, Hi).
func (iv Interval) Contains(t float64) bool { return iv.Lo <= t && t < iv.Hi }

// Tree is a read-only interval tree on a device.
type Tree struct {
	dev          blockio.Device
	payloadSize  int
	root         blockio.PageID
	numIntervals int
	height       int
	listCap      int // entries per list page
}

const (
	nodeSize       = 8 + 8 + 8 + 8 + 4 + 8 + 4 // center, left, right, lHead, lCount, rHead, rCount
	listHeaderSize = 2 + 8                     // count uint16, next PageID
	intervalSize   = 16                        // lo, hi
)

// Build constructs the tree from the given intervals (any order).
// Every payload must have length payloadSize and every interval must
// satisfy Lo < Hi.
//
// It runs in two phases. The first decides the tree: each node's
// center, the stable partition of its intervals into left, mid and
// right, and its mid list's two orders, ascending lo and descending hi.
// With more than one core (runtime.GOMAXPROCS), a subtree of at least
// splitMin intervals is decided on another goroutine while one is free;
// every node works in its own window of the scratch, so none waits on
// another. The second phase lays the tree out on one goroutine, in
// post-order (left subtree, right subtree, the two lists, the node), so
// page ids and bytes do not depend on how the first phase was split.
func Build(dev blockio.Device, payloadSize int, intervals []Interval) (*Tree, error) {
	t := &Tree{dev: dev, payloadSize: payloadSize}
	var err error
	if t.listCap, err = listCap(dev.BlockSize(), payloadSize); err != nil {
		return nil, err
	}
	for i, iv := range intervals {
		if !(iv.Lo < iv.Hi) {
			return nil, fmt.Errorf("itree: interval %d degenerate: [%g,%g)", i, iv.Lo, iv.Hi)
		}
		if len(iv.Payload) != payloadSize {
			return nil, fmt.Errorf("itree: interval %d payload %d bytes, want %d", i, len(iv.Payload), payloadSize)
		}
	}
	t.numIntervals = len(intervals)
	n := len(intervals)
	pl := &planner{
		ivs:   slices.Clone(intervals),
		part:  make([]Interval, n),
		ends:  make([]float64, 2*n),
		keys:  make([]keyed, n),
		order: make([]int32, 2*n),
	}
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		pl.slots = make(chan struct{}, procs-1)
	}
	root, err := pl.plan(0, n, 0)
	if err != nil {
		return nil, err
	}
	b := &builder{t: t, page: make([]byte, dev.BlockSize())}
	if t.root, err = b.layout(root); err != nil {
		return nil, err
	}
	t.height = root.treeHeight()
	return t, nil
}

// Meta is the handful of fields that, together with the device holding
// the node pages, fully determine a Tree. Snapshot checkpoints persist
// it alongside the raw page image; Open reattaches.
type Meta struct {
	Root         blockio.PageID
	Height       int
	NumIntervals int
	PayloadSize  int
}

// Meta captures the tree's persistent handle state.
func (t *Tree) Meta() Meta {
	return Meta{Root: t.root, Height: t.height, NumIntervals: t.numIntervals, PayloadSize: t.payloadSize}
}

// Open reattaches a tree to node pages already present on dev (the
// restore path — no nodes are rebuilt). An empty tree has an invalid
// root and zero height, exactly as Build leaves it for no intervals.
func Open(dev blockio.Device, m Meta) (*Tree, error) {
	if m.NumIntervals < 0 || m.PayloadSize < 1 {
		return nil, fmt.Errorf("itree: invalid meta %+v", m)
	}
	t := &Tree{dev: dev, payloadSize: m.PayloadSize, root: m.Root, height: m.Height, numIntervals: m.NumIntervals}
	var err error
	if t.listCap, err = listCap(dev.BlockSize(), m.PayloadSize); err != nil {
		return nil, err
	}
	if m.NumIntervals > 0 && (m.Root == blockio.InvalidPage || m.Height < 1) {
		return nil, fmt.Errorf("itree: meta claims %d intervals but no root", m.NumIntervals)
	}
	return t, nil
}

// listCap returns how many records of payloadSize bytes fit on a list
// page, which must be at least one and, since a page stores its count
// as a uint16, at most math.MaxUint16.
func listCap(blockSize, payloadSize int) (int, error) {
	c := (blockSize - listHeaderSize) / (intervalSize + payloadSize)
	if c < 1 || blockSize < nodeSize {
		return 0, fmt.Errorf("itree: block size %d too small for payload %d", blockSize, payloadSize)
	}
	if c > math.MaxUint16 {
		return 0, fmt.Errorf("itree: block size %d fits %d records per list page, over the page count's limit of %d", blockSize, c, math.MaxUint16)
	}
	return c, nil
}

// Len returns the number of stored intervals.
func (t *Tree) Len() int { return t.numIntervals }

// Height returns the node depth of the tree.
func (t *Tree) Height() int { return t.height }

// maxDepth guards against degenerate recursion; 64 levels is far beyond
// any balanced shape for in-range inputs.
const maxDepth = 64

// splitMin is the fewest intervals a subtree must hold for Build's
// first phase to decide it on another goroutine: below it, starting
// one costs more than it saves.
const splitMin = 1 << 13

// node is one node of the tree Build's first phase decides.
type node struct {
	center      float64
	mid         []Interval // the node's intervals, in partition order
	byLo, byHi  []int32    // mid's indexes, by ascending lo and by descending hi
	left, right *node
	height      int
}

func (nd *node) treeHeight() int {
	if nd == nil {
		return 0
	}
	return nd.height
}

// keyed is one mid interval's sort key and its index in mid.
type keyed struct {
	key float64
	i   int32
}

// ascending and descending order keyed entries by key. slices.SortFunc
// runs the same pattern-defeating quicksort as sort.Sort and only asks
// whether a comparison is negative, so a list sorts exactly as sort.Sort
// would sort its intervals under Less(i, j) = key i < key j (> for
// descending), equal keys included.
func ascending(a, b keyed) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return 0
}

func descending(a, b keyed) int { return ascending(b, a) }

// planner is Build's first phase: the intervals and scratch sized once
// for the whole input. The subtree over ivs[lo:hi] reorders only that
// window, and works only in the same window of part, keys and each
// half of order and in ends[2*lo:2*hi], so subtrees decided on
// different goroutines share nothing they write.
type planner struct {
	ivs   []Interval
	part  []Interval    // a node's partition
	ends  []float64     // pickCenter's endpoints
	keys  []keyed       // a mid list being sorted
	order []int32       // every node's byLo in the first half, byHi in the second
	slots chan struct{} // one per goroutine plan may have running; nil on one core
}

// plan decides the subtree over ivs[lo:hi], which it reorders.
func (p *planner) plan(lo, hi, depth int) (*node, error) {
	if lo == hi {
		return nil, nil
	}
	ivs := p.ivs[lo:hi]
	if depth > maxDepth {
		return nil, fmt.Errorf("itree: degenerate recursion (depth %d, %d intervals)", depth, len(ivs))
	}
	center := pickCenter(ivs, p.ends[2*lo:2*hi])

	// Partition ivs into left | mid | right, each keeping its input
	// order.
	nl, nm := 0, 0
	for i := range ivs {
		switch {
		case ivs[i].Hi <= center:
			nl++
		case ivs[i].Lo > center:
		default:
			nm++
		}
	}
	if nm == 0 && (nl == len(ivs) || nl == 0) {
		return nil, fmt.Errorf("itree: center %g did not split %d intervals", center, len(ivs))
	}
	part := p.part[lo:hi]
	l, m, r := 0, nl, nl+nm
	for _, iv := range ivs {
		switch {
		case iv.Hi <= center:
			part[l] = iv
			l++
		case iv.Lo > center:
			part[r] = iv
			r++
		default:
			part[m] = iv
			m++
		}
	}
	copy(ivs, part)

	at := lo + nl // where mid starts
	nd := &node{
		center: center,
		mid:    ivs[nl : nl+nm],
		byLo:   p.order[at : at+nm],
		byHi:   p.order[len(p.ivs)+at : len(p.ivs)+at+nm],
	}
	// Lists: ascending lo, and descending hi. Each sort sees mid in
	// partition order and compares keys as the interval comparisons
	// would, so equal keys end up where sorting the intervals would
	// put them.
	keys := p.keys[at : at+nm]
	for i, iv := range nd.mid {
		keys[i] = keyed{iv.Lo, int32(i)}
	}
	slices.SortFunc(keys, ascending)
	for i, k := range keys {
		nd.byLo[i] = k.i
	}
	for i, iv := range nd.mid {
		keys[i] = keyed{iv.Hi, int32(i)}
	}
	slices.SortFunc(keys, descending)
	for i, k := range keys {
		nd.byHi[i] = k.i
	}

	var lerr, rerr error
	if hi-lo >= splitMin && p.acquire() {
		done := make(chan struct{})
		go func() {
			nd.left, lerr = p.plan(lo, at, depth+1)
			<-p.slots
			close(done)
		}()
		nd.right, rerr = p.plan(at+nm, hi, depth+1)
		<-done
	} else if nd.left, lerr = p.plan(lo, at, depth+1); lerr == nil {
		nd.right, rerr = p.plan(at+nm, hi, depth+1)
	}
	if lerr != nil {
		return nil, lerr
	}
	if rerr != nil {
		return nil, rerr
	}
	nd.height = 1 + max(nd.left.treeHeight(), nd.right.treeHeight())
	return nd, nil
}

// acquire reports whether a goroutine may be started, taking its slot
// if so; there are none on one core.
func (p *planner) acquire() bool {
	select {
	case p.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// builder is Build's second phase: the tree being laid out and the
// scratch every node and list page is laid out in.
type builder struct {
	t     *Tree
	page  []byte           // the one page image every node and list page is laid out in
	pages []blockio.PageID // the chain writeList is laying out
}

// layout writes the subtree under nd and returns its root page.
func (b *builder) layout(nd *node) (blockio.PageID, error) {
	if nd == nil {
		return blockio.InvalidPage, nil
	}
	leftPage, err := b.layout(nd.left)
	if err != nil {
		return blockio.InvalidPage, err
	}
	rightPage, err := b.layout(nd.right)
	if err != nil {
		return blockio.InvalidPage, err
	}
	lHead, err := b.writeList(nd.mid, nd.byLo)
	if err != nil {
		return blockio.InvalidPage, err
	}
	rHead, err := b.writeList(nd.mid, nd.byHi)
	if err != nil {
		return blockio.InvalidPage, err
	}

	page, err := b.t.dev.Alloc()
	if err != nil {
		return blockio.InvalidPage, err
	}
	buf := b.page
	clear(buf)
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(nd.center))
	putPageID(buf[8:], leftPage)
	putPageID(buf[16:], rightPage)
	putPageID(buf[24:], lHead)
	binary.LittleEndian.PutUint32(buf[32:], uint32(len(nd.mid)))
	putPageID(buf[36:], rHead)
	binary.LittleEndian.PutUint32(buf[44:], uint32(len(nd.mid)))
	if err := b.t.dev.Write(page, buf); err != nil {
		return blockio.InvalidPage, err
	}
	return page, nil
}

// pickCenter returns the midpoint of the two middle endpoints of ivs,
// which balances endpoint counts across children: with the 2n
// endpoints in ascending order as e, exactly (e[n-1]+e[n])/2. It finds
// the two by selection in scratch, which must hold 2n floats, rather
// than by sorting; the result must be that float and no other (the
// center decides which node every interval lands on), and the identity
// test holds it to a sort-based reference.
func pickCenter(ivs []Interval, scratch []float64) float64 {
	for i, iv := range ivs {
		scratch[2*i], scratch[2*i+1] = iv.Lo, iv.Hi
	}
	k := len(ivs)
	selectKth(scratch, k)
	return (slices.Max(scratch[:k]) + scratch[k]) / 2
}

// selectKth reorders a so that a[k] is the element a full ascending
// sort would put there, nothing before it is greater and nothing after
// it is smaller. Quickselect with a median-of-three pivot, linear in
// expectation; a window that survives more rounds than a balanced
// split sequence allows is sorted outright, which keeps the worst case
// at O(n log n).
func selectKth(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for budget := 2 * bits.Len(uint(len(a))); hi-lo > 16 && budget > 0; budget-- {
		// Median of three to a[lo+1], with a[lo] <= pivot <= a[hi] as
		// sentinels for the scans below.
		mid := lo + (hi-lo)/2
		a[mid], a[lo+1] = a[lo+1], a[mid]
		if a[lo] > a[hi] {
			a[lo], a[hi] = a[hi], a[lo]
		}
		if a[lo+1] > a[hi] {
			a[lo+1], a[hi] = a[hi], a[lo+1]
		}
		if a[lo] > a[lo+1] {
			a[lo], a[lo+1] = a[lo+1], a[lo]
		}
		pivot := a[lo+1]
		i, j := lo+1, hi
		for {
			for i++; a[i] < pivot; i++ {
			}
			for j--; a[j] > pivot; j-- {
			}
			if j < i {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		a[lo+1], a[j] = a[j], pivot
		if j >= k {
			hi = j - 1
		}
		if j <= k {
			lo = i
		}
	}
	if lo < hi {
		slices.Sort(a[lo : hi+1])
	}
}

// writeList serializes ivs, in the order order lists their indexes,
// into a chain of list pages, returning the head page (InvalidPage when
// empty). Page order preserves that order so scan early-exit works.
func (b *builder) writeList(ivs []Interval, order []int32) (blockio.PageID, error) {
	if len(ivs) == 0 {
		return blockio.InvalidPage, nil
	}
	t := b.t
	// Allocate pages first so each page can point at its successor.
	numPages := (len(ivs) + t.listCap - 1) / t.listCap
	pages := b.pages[:0]
	for i := 0; i < numPages; i++ {
		p, err := t.dev.Alloc()
		if err != nil {
			return blockio.InvalidPage, err
		}
		pages = append(pages, p)
	}
	b.pages = pages
	buf := b.page
	for pi := 0; pi < numPages; pi++ {
		start := pi * t.listCap
		end := min(start+t.listCap, len(ivs))
		clear(buf)
		binary.LittleEndian.PutUint16(buf[0:], uint16(end-start))
		next := blockio.InvalidPage
		if pi+1 < numPages {
			next = pages[pi+1]
		}
		putPageID(buf[2:], next)
		off := listHeaderSize
		for _, i := range order[start:end] {
			iv := &ivs[i]
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

// Stab invokes visit for every stored interval containing x. The
// payload slice passed to visit aliases the page view of the list page
// being scanned; it is valid only for the duration of the visit call —
// copy it to retain. Iteration stops early if visit returns false. Each
// page view is counted on the device as it is taken.
func (t *Tree) Stab(x float64, visit func(iv Interval) bool) error {
	stride := t.RecordSize()
	return t.StabRuns(x, nil, func(recs []byte) bool {
		for off := 0; off < len(recs); off += stride {
			r := recs[off : off+stride]
			if !visit(Interval{Lo: getF64(r), Hi: getF64(r[8:]), Payload: r[intervalSize:]}) {
				return false
			}
		}
		return true
	})
}

// RecordSize is the stride of the records StabRuns hands out: lo and
// hi as little-endian float64 bits, then the payload.
func (t *Tree) RecordSize() int { return intervalSize + t.payloadSize }

// StabRuns reports every stored interval containing x, a list page at a
// time: run gets the records of one page that contain x, RecordSize
// bytes each, aliasing the page view (valid only during the call). The
// stab stops early if run returns false. Its page views are charged to
// ios (see blockio.IOCount.View; nil counts them on the device).
//
// A node's lists are sorted so the records containing x are a prefix of
// the chain: all of them when x is the center, else those with lo <= x
// (ascending-lo list) or hi > x (descending-hi list). A binary search
// finds where that prefix ends on its last page, so a stab views the
// pages a record-at-a-time scan would, holding one view at a time.
func (t *Tree) StabRuns(x float64, ios *blockio.IOCount, run func(recs []byte) bool) error {
	stride := t.RecordSize()
	page := t.root
	for page != blockio.InvalidPage {
		v, err := ios.View(t.dev, page)
		if err != nil {
			return err
		}
		buf := v.Data()
		center := getF64(buf[0:])
		next, head, key := getPageID(buf[8:]), getPageID(buf[24:]), -1
		switch {
		case x < center:
			key = 0 // lo <= x
		case x > center:
			next, head, key = getPageID(buf[16:]), getPageID(buf[36:]), 8 // hi > x
		default: // x == center: every interval at this node contains x.
			next = blockio.InvalidPage
		}
		v.Release()
		for head != blockio.InvalidPage {
			if v, err = ios.View(t.dev, head); err != nil {
				return err
			}
			buf := v.Data()
			count := int(binary.LittleEndian.Uint16(buf[0:]))
			head = getPageID(buf[2:])
			recs := buf[listHeaderSize : listHeaderSize+count*stride]
			n := count
			if key >= 0 && count > 0 && !contains(recs[(count-1)*stride+key:], key, x) {
				// The prefix ends on this page.
				n = sort.Search(count, func(i int) bool { return !contains(recs[i*stride+key:], key, x) })
				head = blockio.InvalidPage
			}
			more := n == 0 || run(recs[:n*stride])
			v.Release()
			if !more {
				return nil
			}
		}
		page = next
	}
	return nil
}

// contains reports whether the record field at b — lo when key is 0,
// hi when it is 8 — puts x inside the record's interval.
func contains(b []byte, key int, x float64) bool {
	if key == 0 {
		return getF64(b) <= x
	}
	return getF64(b) > x
}

func getF64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func getPageID(b []byte) blockio.PageID {
	return blockio.PageID(int64(binary.LittleEndian.Uint64(b)))
}

func putPageID(b []byte, p blockio.PageID) {
	binary.LittleEndian.PutUint64(b, uint64(int64(p)))
}
