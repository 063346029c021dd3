package approx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/bptree"
	"temporalrank/internal/breakpoint"
	"temporalrank/internal/gen"
	"temporalrank/internal/topk"
	"temporalrank/internal/tsdata"
)

// The references below are the list build as it stood before the
// prefix matrix became columns: a row per object of Series.Range at
// every breakpoint, two binary searches each, and every list collected
// by offering all m differences to a fresh collector. The identity
// tests hold the shipped build to them bit for bit.

// prefixAtBreakpoints computes P[i][j] = σ_i(Start, b_j) for every
// object i and breakpoint j, one Range call per entry.
func prefixAtBreakpoints(ds *tsdata.Dataset, times []float64) [][]float64 {
	m := ds.NumSeries()
	p := make([][]float64, m)
	for i := 0; i < m; i++ {
		s := ds.Series(tsdata.SeriesID(i))
		row := make([]float64, len(times))
		for j, b := range times {
			row[j] = s.Range(ds.Start(), b)
		}
		p[i] = row
	}
	return p
}

// rowMajorList is the top-kmax list of [b_lo, b_hi] from the rows.
func rowMajorList(prefix [][]float64, kmax, lo, hi int) []topk.Item {
	c := topk.NewCollector(kmax)
	for i := range prefix {
		c.Add(tsdata.SeriesID(i), prefix[i][hi]-prefix[i][lo])
	}
	return c.Results()
}

// buildQuery1RowMajor is BuildQuery1 over the row-major matrix.
func buildQuery1RowMajor(dev blockio.Device, ds *tsdata.Dataset, bps *breakpoint.Set, kmax int) (*Query1, error) {
	r := bps.R()
	prefix := prefixAtBreakpoints(ds, bps.Times)
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
				ref, err = packer.Put(rowMajorList(prefix, kmax, j, jp))
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
			return nil, err
		}
		q.lower[j] = lt
		tv := make([]byte, topValueSize)
		binary.LittleEndian.PutUint32(tv, uint32(j))
		topEntries[j] = bptree.Entry{Key: bps.Times[j], Value: tv}
	}
	if err := packer.Flush(); err != nil {
		return nil, err
	}
	if q.ttop, err = bptree.BulkLoad(dev, topValueSize, topEntries); err != nil {
		return nil, err
	}
	return q, nil
}

// buildQuery2RowMajor is BuildQuery2 over the row-major matrix.
func buildQuery2RowMajor(dev blockio.Device, ds *tsdata.Dataset, bps *breakpoint.Set, kmax int) (*Query2, error) {
	prefix := prefixAtBreakpoints(ds, bps.Times)
	packer, err := newListPacker(dev)
	if err != nil {
		return nil, err
	}
	q := &Query2{dev: dev, bps: bps, kmax: kmax, m: ds.NumSeries()}
	var build func(lo, hi int) (int, error)
	build = func(lo, hi int) (int, error) {
		idx := len(q.nodes)
		q.nodes = append(q.nodes, dyadicNode{lo: lo, hi: hi, left: -1, right: -1})
		ref, err := packer.Put(rowMajorList(prefix, kmax, lo, hi))
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
	if q.root, err = build(0, bps.R()-1); err != nil {
		return nil, err
	}
	if err := packer.Flush(); err != nil {
		return nil, err
	}
	return q, nil
}

// identityData is each generator an index is built from, at a size the
// list builds cover in well under a second: Temp, Meme (objects that
// start after the dataset does and end before its last breakpoint),
// RandomWalk (negative and positive values) and uniform random series
// shifted to be mostly negative.
func identityData(t *testing.T) map[string]*tsdata.Dataset {
	t.Helper()
	temp, err := gen.Temp(gen.TempConfig{M: 300, Navg: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	meme, err := gen.Meme(gen.MemeConfig{M: 300, Navg: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	walk, err := gen.RandomWalk(gen.RandomWalkConfig{M: 300, Navg: 40, Seed: 3, Span: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*tsdata.Dataset{
		"temp":     temp,
		"meme":     meme,
		"walk":     walk,
		"negative": randomDataset(41, 300, 40, true),
	}
}

// edgeTimes returns nondecreasing breakpoint-like times that land where
// the forward walk branches: before the domain, on ds.Start(), exactly
// on interior vertices, on series' last vertices (several of them
// before the dataset's end), twice on one time, and on ds.End().
func edgeTimes(ds *tsdata.Dataset) []float64 {
	times := []float64{ds.Start() - 1, ds.Start(), ds.End()}
	for i := 0; i < ds.NumSeries(); i += 37 {
		s := ds.Series(tsdata.SeriesID(i))
		times = append(times, s.VertexTime(s.NumSegments()/2), s.End())
		if s.NumSegments() > 1 {
			times = append(times, s.VertexTime(1), s.VertexTime(1))
		}
	}
	slices.Sort(times)
	return times
}

// prefixColumns gives Series.Range's prefixes bit for bit, at real
// breakpoints and at the times where the walk's branches meet.
func TestPrefixColumnsIdenticalToRange(t *testing.T) {
	for name, ds := range identityData(t) {
		bps, err := breakpoint.Build2WithTargetR(ds, 40, true)
		if err != nil {
			t.Fatal(err)
		}
		for tname, times := range map[string][]float64{"breakpoints": bps.Times, "edges": edgeTimes(ds)} {
			cols, rows := prefixColumns(ds, times), prefixAtBreakpoints(ds, times)
			for i, row := range rows {
				for j, want := range row {
					if got := cols[j][i]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s/%s: object %d at b_%d = %g: column %g, Range %g", name, tname, i, j, times[j], got, want)
					}
				}
			}
		}
	}
}

// samePages reports the first page on which two devices differ.
func samePages(got, want *blockio.MemDevice) error {
	if got.NumPages() != want.NumPages() {
		return fmt.Errorf("%d pages, reference %d", got.NumPages(), want.NumPages())
	}
	g, w := make([]byte, got.BlockSize()), make([]byte, want.BlockSize())
	for p := 0; p < got.NumPages(); p++ {
		if err := got.Read(blockio.PageID(p), g); err != nil {
			return err
		}
		if err := want.Read(blockio.PageID(p), w); err != nil {
			return err
		}
		if !bytes.Equal(g, w) {
			return fmt.Errorf("page %d differs", p)
		}
	}
	return nil
}

// BuildQuery1 and BuildQuery2 write the row-major build's pages byte
// for byte, on a block size small enough that lists span pages.
func TestListsIdenticalToRowMajor(t *testing.T) {
	for name, ds := range identityData(t) {
		bps, err := breakpoint.Build2WithTargetR(ds, 30, true)
		if err != nil {
			t.Fatal(err)
		}
		gdev, wdev := blockio.NewMemDevice(256), blockio.NewMemDevice(256)
		if _, err := BuildQuery1(gdev, ds, bps, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := buildQuery1RowMajor(wdev, ds, bps, 7); err != nil {
			t.Fatal(err)
		}
		if err := samePages(gdev, wdev); err != nil {
			t.Errorf("%s: Query1: %v", name, err)
		}

		gdev, wdev = blockio.NewMemDevice(256), blockio.NewMemDevice(256)
		got, err := BuildQuery2(gdev, ds, bps, 20)
		if err != nil {
			t.Fatal(err)
		}
		want, err := buildQuery2RowMajor(wdev, ds, bps, 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := samePages(gdev, wdev); err != nil {
			t.Errorf("%s: Query2: %v", name, err)
		}
		if got.root != want.root || !slices.Equal(got.nodes, want.nodes) {
			t.Errorf("%s: Query2's directory differs from the reference's", name)
		}
	}
}
