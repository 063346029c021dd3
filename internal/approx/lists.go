// Package approx implements the paper's approximate aggregate top-k
// indexes (§3.2, §3.3):
//
//   - Query1: the nested-B+-tree structure over all O(r²) breakpoint
//     pairs, answering (ε,1)-approximate top-k in O(k/B + log_B r) IOs.
//   - Query2: the dyadic-interval structure over O(r) intervals,
//     answering (ε,2·log r)-approximate top-k in O(k·log r·log_B k)
//     IOs with Θ(r·kmax/B) space.
//   - The combined methods APPX1-B, APPX2-B (BREAKPOINTS1-based),
//     APPX1, APPX2 (BREAKPOINTS2-based), and APPX2+ (APPX2 with exact
//     rescoring of the candidate set through EXACT2's packed runs).
//
// All structures store their payload on a blockio.Device so query IO
// follows the paper's cost model. Top-k lists are densely packed into
// a shared page arena (lists freely span and share pages), so index
// size really is Θ(r²·kmax/B) / Θ(r·kmax/B) rather than one page per
// list.
package approx

import (
	"encoding/binary"
	"fmt"
	"math"

	"temporalrank/internal/blockio"
	"temporalrank/internal/topk"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

const (
	arenaHeaderSize = 8     // next-page pointer
	listEntrySize   = 4 + 8 // series uint32, score float64
)

// listRef locates a packed top-k list in the arena.
type listRef struct {
	head  blockio.PageID
	off   uint16 // byte offset of the first entry in the head page
	count uint32
}

const listRefSize = 8 + 2 + 4

func putNextPtr(buf []byte, p blockio.PageID) {
	v := int64(p)
	binary.LittleEndian.PutUint64(buf[0:], uint64(v))
}

func (r listRef) encode(b []byte) {
	binary.LittleEndian.PutUint64(b[0:], uint64(int64(r.head)))
	binary.LittleEndian.PutUint16(b[8:], r.off)
	binary.LittleEndian.PutUint32(b[10:], r.count)
}

func decodeListRef(b []byte) listRef {
	return listRef{
		head:  blockio.PageID(int64(binary.LittleEndian.Uint64(b[0:]))),
		off:   binary.LittleEndian.Uint16(b[8:]),
		count: binary.LittleEndian.Uint32(b[10:]),
	}
}

// listPacker packs top-k lists densely into device pages. Each page
// begins with a next-page pointer; a list is (head page, offset,
// count) and may span any number of consecutive list pages.
type listPacker struct {
	dev  blockio.Device
	buf  []byte
	page blockio.PageID
	off  int
}

func newListPacker(dev blockio.Device) (*listPacker, error) {
	if dev.BlockSize() < arenaHeaderSize+listEntrySize {
		return nil, fmt.Errorf("approx: block size %d too small for list entries", dev.BlockSize())
	}
	if dev.BlockSize() > 1<<16 {
		return nil, fmt.Errorf("approx: block size %d exceeds list offset range", dev.BlockSize())
	}
	return &listPacker{
		dev:  dev,
		buf:  make([]byte, dev.BlockSize()),
		page: blockio.InvalidPage,
		off:  dev.BlockSize(), // force allocation on first Put
	}, nil
}

// advance allocates the next list page, chaining it from the current
// one, and flushes the current page.
func (a *listPacker) advance() error {
	p, err := a.dev.Alloc()
	if err != nil {
		return err
	}
	if a.page != blockio.InvalidPage {
		putNextPtr(a.buf, p)
		if err := a.dev.Write(a.page, a.buf); err != nil {
			return err
		}
	}
	for i := range a.buf {
		a.buf[i] = 0
	}
	putNextPtr(a.buf, blockio.InvalidPage)
	a.page = p
	a.off = arenaHeaderSize
	return nil
}

// Put appends a list (already rank-ordered) and returns its reference.
func (a *listPacker) Put(items []topk.Item) (listRef, error) {
	if len(items) == 0 {
		return listRef{head: blockio.InvalidPage}, nil
	}
	if a.off+listEntrySize > len(a.buf) {
		if err := a.advance(); err != nil {
			return listRef{}, err
		}
	}
	ref := listRef{head: a.page, off: uint16(a.off), count: uint32(len(items))}
	for _, it := range items {
		if a.off+listEntrySize > len(a.buf) {
			if err := a.advance(); err != nil {
				return listRef{}, err
			}
		}
		binary.LittleEndian.PutUint32(a.buf[a.off:], uint32(it.ID))
		binary.LittleEndian.PutUint64(a.buf[a.off+4:], math.Float64bits(it.Score))
		a.off += listEntrySize
	}
	return ref, nil
}

// Flush writes the trailing partial page; call once after all Puts.
func (a *listPacker) Flush() error {
	if a.page == blockio.InvalidPage {
		return nil
	}
	return a.dev.Write(a.page, a.buf)
}

// readList reads up to limit items of a packed list (limit < 0 reads
// all), charging its page views to ios.
func readList(dev blockio.Device, ref listRef, limit int, ios *blockio.IOCount) ([]topk.Item, error) {
	if ref.head == blockio.InvalidPage || ref.count == 0 || limit == 0 {
		return nil, nil
	}
	out := make([]topk.Item, 0, listLen(ref, limit))
	err := walkList(dev, ref, limit, ios, func(id tsdata.SeriesID, score float64) error {
		out = append(out, topk.Item{ID: id, Score: score})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// listLen is the number of entries a read of ref with limit yields.
func listLen(ref listRef, limit int) int {
	if ref.head == blockio.InvalidPage || limit == 0 {
		return 0
	}
	n := int(ref.count)
	if limit > 0 && limit < n {
		n = limit
	}
	return n
}

// walkList hands the first limit entries of a packed list (limit < 0:
// all of them) to fn in rank order, stopping at fn's first error. List
// reads run once per (query, list) on the approximate read path; each
// chained page is decoded in place from a zero-copy view, held only
// while its entries are consumed, and charged to ios.
func walkList(dev blockio.Device, ref listRef, limit int, ios *blockio.IOCount, fn func(id tsdata.SeriesID, score float64) error) error {
	want := listLen(ref, limit)
	if want == 0 {
		return nil
	}
	v, err := ios.View(dev, ref.head)
	if err != nil {
		return err
	}
	buf := v.Data()
	off := int(ref.off)
	for got := 0; got < want; got++ {
		if off+listEntrySize > len(buf) {
			next := blockio.PageID(int64(binary.LittleEndian.Uint64(buf[0:])))
			if next == blockio.InvalidPage {
				v.Release()
				return fmt.Errorf("approx: list truncated at %d of %d entries", got, want)
			}
			nv, err := ios.View(dev, next)
			if err != nil {
				v.Release()
				return err
			}
			v.Release()
			v = nv
			buf = v.Data()
			off = arenaHeaderSize
		}
		id := tsdata.SeriesID(binary.LittleEndian.Uint32(buf[off:]))
		if err := fn(id, math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4:]))); err != nil {
			v.Release()
			return err
		}
		off += listEntrySize
	}
	v.Release()
	return nil
}

// prefixColumns computes cols[j][i] = σ_i(Start, b_j) for every
// breakpoint j and object i, so any snapped interval aggregate of
// object i is cols[j'][i] - cols[j][i]. Each object fills its entries
// in one forward walk over its segments (Series.RangesFrom), bit for
// bit what Range gives, and the columns share one backing array: a
// list over [b_lo, b_hi] then reads two contiguous columns.
//
// This replaces the paper's r-way running-sum sweep with an equivalent
// prefix-matrix construction; the resulting index bytes are identical.
func prefixColumns(ds *tsdata.Dataset, times []float64) [][]float64 {
	m, r := ds.NumSeries(), len(times)
	flat := make([]float64, r*m)
	cols := make([][]float64, r)
	for j := range cols {
		cols[j] = flat[j*m : (j+1)*m : (j+1)*m]
	}
	row := make([]float64, r)
	for i := 0; i < m; i++ {
		ds.Series(tsdata.SeriesID(i)).RangesFrom(ds.Start(), times, row)
		for j, v := range row {
			cols[j][i] = v
		}
	}
	return cols
}

// listPicker selects the top-kmax list of one snapped interval from the
// prefix columns, reusing one m-vector of interval scores.
type listPicker struct {
	cols   [][]float64
	kmax   int
	scores []float64
}

func newListPicker(ds *tsdata.Dataset, times []float64, kmax int) *listPicker {
	return &listPicker{cols: prefixColumns(ds, times), kmax: kmax, scores: make([]float64, ds.NumSeries())}
}

// pick returns the top-kmax objects by σ_i(b_lo, b_hi) =
// cols[hi][i] - cols[lo][i], in rank order.
func (p *listPicker) pick(lo, hi int) []topk.Item {
	l, h := p.cols[lo], p.cols[hi]
	for i := range p.scores {
		p.scores[i] = h[i] - l[i]
	}
	return topk.Collect(p.kmax, p.scores)
}

func validateQuery(t1, t2 float64) error {
	if math.IsNaN(t1) || math.IsNaN(t2) || math.IsInf(t1, 0) || math.IsInf(t2, 0) {
		return fmt.Errorf("approx: %w: non-finite [%g,%g]", trerr.ErrBadInterval, t1, t2)
	}
	if t2 < t1 {
		return fmt.Errorf("approx: %w: inverted [%g,%g]", trerr.ErrBadInterval, t1, t2)
	}
	return nil
}
