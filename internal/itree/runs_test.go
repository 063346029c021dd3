package itree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"temporalrank/internal/blockio"
)

// readPage copies page id of dev into buf through a view, so the
// reference walks run on a view-only device too.
func readPage(t *testing.T, dev blockio.Device, id blockio.PageID, buf []byte) {
	t.Helper()
	v, err := blockio.View(dev, id)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, v.Data())
	v.Release()
}

// readList decodes a whole list chain by copying each page, with no
// early exit (the identity test's view of a node's lists).
func readList(t *testing.T, tr *Tree, head blockio.PageID) []Interval {
	t.Helper()
	var out []Interval
	buf := make([]byte, tr.dev.BlockSize())
	for page := head; page != blockio.InvalidPage; page = getPageID(buf[2:]) {
		readPage(t, tr.dev, page, buf)
		count := int(binary.LittleEndian.Uint16(buf[0:]))
		for i := 0; i < count; i++ {
			r := buf[listHeaderSize+i*tr.RecordSize():]
			out = append(out, Interval{Lo: getF64(r), Hi: getF64(r[8:]), Payload: slices.Clone(r[16 : 16+tr.payloadSize])})
		}
	}
	return out
}

// referenceStab is a record-at-a-time stab: it walks the tree as the
// classic centered-tree query does, scanning each list from its head and
// stopping at the first record that misses x. It returns the ids found
// and the number of pages it read, which is what StabRuns must view.
func referenceStab(t *testing.T, tr *Tree, x float64) (ids []uint32, pages int) {
	t.Helper()
	buf := make([]byte, tr.dev.BlockSize())
	for page := tr.root; page != blockio.InvalidPage; {
		readPage(t, tr.dev, page, buf)
		pages++
		center := getF64(buf[0:])
		left, right, lHead, rHead := getPageID(buf[8:]), getPageID(buf[16:]), getPageID(buf[24:]), getPageID(buf[36:])
		head, next, hit := lHead, left, func(iv Interval) bool { return iv.Lo <= x }
		switch {
		case x > center:
			head, next, hit = rHead, right, func(iv Interval) bool { return iv.Hi > x }
		case x == center:
			next, hit = blockio.InvalidPage, func(Interval) bool { return true }
		}
		lbuf := make([]byte, tr.dev.BlockSize())
	list:
		for lp := head; lp != blockio.InvalidPage; lp = getPageID(lbuf[2:]) {
			readPage(t, tr.dev, lp, lbuf)
			pages++
			count := int(binary.LittleEndian.Uint16(lbuf[0:]))
			for i := 0; i < count; i++ {
				r := lbuf[listHeaderSize+i*tr.RecordSize():]
				iv := Interval{Lo: getF64(r), Hi: getF64(r[8:]), Payload: r[16 : 16+tr.payloadSize]}
				if !hit(iv) {
					break list
				}
				ids = append(ids, payloadID(iv.Payload))
			}
		}
		page = next
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids, pages
}

// runIDs stabs with StabRuns, checking that every record it is handed
// contains x, and returns the sorted ids and the pages the stab viewed.
// The stab charges its views to a count of its own, which reaches the
// device only when it is folded.
func runIDs(t *testing.T, tr *Tree, dev blockio.Device, x float64) (ids []uint32, pages int) {
	t.Helper()
	dev.ResetStats()
	stride := tr.RecordSize()
	var ios blockio.IOCount
	err := tr.StabRuns(x, &ios, func(recs []byte) bool {
		if len(recs) == 0 || len(recs)%stride != 0 {
			t.Fatalf("StabRuns(%g): run of %d bytes, records are %d", x, len(recs), stride)
		}
		for off := 0; off < len(recs); off += stride {
			r := recs[off : off+stride]
			if iv := (Interval{Lo: getF64(r), Hi: getF64(r[8:])}); !iv.Contains(x) {
				t.Fatalf("StabRuns(%g): run holds [%g,%g)", x, iv.Lo, iv.Hi)
			}
			ids = append(ids, payloadID(r[16:]))
		}
		return true
	})
	if err != nil {
		t.Fatalf("StabRuns(%g): %v", x, err)
	}
	if r := dev.Stats().Reads; r != 0 {
		t.Fatalf("StabRuns(%g): %d reads on the device before the count was folded", x, r)
	}
	ios.Fold(dev)
	if r := dev.Stats().Reads; r != ios.Reads() {
		t.Fatalf("StabRuns(%g): folded %d reads, the device counts %d", x, ios.Reads(), r)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids, int(ios.Reads())
}

// centers returns the center of every node of tr.
func centers(t *testing.T, tr *Tree) []float64 {
	t.Helper()
	var out []float64
	var walk func(blockio.PageID)
	walk = func(p blockio.PageID) {
		if p == blockio.InvalidPage {
			return
		}
		n := readNode(t, tr, p)
		out = append(out, math.Float64frombits(n.center))
		walk(n.left)
		walk(n.right)
	}
	walk(tr.root)
	return out
}

// checkRuns holds StabRuns to the brute-force answer and to the
// reference walk's page count at x.
func checkRuns(t *testing.T, name string, tr *Tree, dev blockio.Device, ivs []Interval, x float64) {
	t.Helper()
	got, pages := runIDs(t, tr, dev, x)
	if want := bruteStab(ivs, x); !eqIDs(got, want) {
		t.Fatalf("%s: StabRuns(%g) found %d intervals, brute force %d", name, x, len(got), len(want))
	}
	ref, refPages := referenceStab(t, tr, x)
	if !eqIDs(ref, got) {
		t.Fatalf("%s: reference walk at %g disagrees with StabRuns", name, x)
	}
	if pages != refPages {
		t.Fatalf("%s: StabRuns(%g) viewed %d pages, reference walk %d", name, x, pages, refPages)
	}
}

func TestStabRunsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	inputs := map[string][]Interval{
		"partition": partitionIntervals(rng, 60, 12, 4),
		"random":    nil,
		"dup-keys":  nil,
	}
	for i := 0; i < 400; i++ {
		lo := rng.Float64() * 100
		inputs["random"] = append(inputs["random"], Interval{Lo: lo, Hi: lo + 0.01 + rng.Float64()*30, Payload: payload(uint32(i))})
	}
	// Few distinct lo and hi keys, so equal keys run across the
	// boundaries of 5-record list pages.
	for i := 0; i < 90; i++ {
		lo := float64(rng.Intn(3))
		inputs["dup-keys"] = append(inputs["dup-keys"], Interval{Lo: lo, Hi: 10 + float64(rng.Intn(3)), Payload: payload(uint32(i))})
	}
	for name, ivs := range inputs {
		for _, bs := range []int{128, 256} { // 5 and 12 records per list page
			dev := blockio.NewViewOnlyDevice(bs)
			tr, err := Build(dev, 4, ivs)
			if err != nil {
				t.Fatal(err)
			}
			var probes []float64
			probes = append(probes, centers(t, tr)...)
			for _, iv := range ivs {
				probes = append(probes, iv.Lo, iv.Hi, math.Nextafter(iv.Lo, math.Inf(-1)), math.Nextafter(iv.Hi, math.Inf(-1)))
			}
			for i := 0; i < 100; i++ {
				probes = append(probes, rng.Float64()*150-20)
			}
			for _, x := range probes {
				checkRuns(t, name, tr, dev, ivs, x)
			}
		}
	}
}

func TestStabRunsEarlyExit(t *testing.T) {
	var ivs []Interval
	for i := 0; i < 50; i++ {
		ivs = append(ivs, Interval{Lo: 0, Hi: 100, Payload: payload(uint32(i))})
	}
	dev := blockio.NewViewOnlyDevice(128) // 5 records per list page
	tr, err := Build(dev, 4, ivs)
	if err != nil {
		t.Fatal(err)
	}
	dev.ResetStats()
	runs := 0
	if err := tr.StabRuns(50, nil, func([]byte) bool {
		runs++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 1 || dev.Stats().Reads != 2 {
		t.Errorf("stopped stab made %d runs over %d pages, want 1 run over the node and one list page", runs, dev.Stats().Reads)
	}

	// Stab's visitor stops in the middle of a page.
	count := 0
	if err := tr.Stab(50, func(Interval) bool {
		count++
		return count < 3
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("Stab early exit visited %d, want 3", count)
	}
}

// A list page stores its record count as a uint16, so a block size
// whose list pages would hold more records than that is refused rather
// than wrapping the count.
func TestListCapBoundedByCountField(t *testing.T) {
	ivs := make([]Interval, 70000)
	for i := range ivs {
		ivs[i] = Interval{Lo: 0, Hi: 1, Payload: payload(uint32(i))}
	}
	if _, err := Build(blockio.NewViewOnlyDevice(4<<20), 4, ivs); err == nil {
		t.Fatal("4 MiB list pages accepted")
	}
	if _, err := Open(blockio.NewViewOnlyDevice(4<<20), Meta{PayloadSize: 4}); err == nil {
		t.Fatal("Open accepted 4 MiB list pages")
	}
	// The largest accepted page holds exactly math.MaxUint16 records.
	dev := blockio.NewViewOnlyDevice(listHeaderSize + math.MaxUint16*(intervalSize+4))
	tr, err := Build(dev, 4, ivs)
	if err != nil {
		t.Fatal(err)
	}
	if got := stabIDs(t, tr, 0.5); len(got) != len(ivs) {
		t.Fatalf("Stab(0.5) reported %d of %d intervals", len(got), len(ivs))
	}
}
