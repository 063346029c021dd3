package bptree

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"temporalrank/internal/blockio"
)

func val8(x uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, x)
	return b
}

func dec8(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

func mkEntries(keys []float64) []Entry {
	es := make([]Entry, len(keys))
	for i, k := range keys {
		es[i] = Entry{Key: k, Value: val8(uint64(i))}
	}
	return es
}

func collect(t *testing.T, tr *Tree) []float64 {
	t.Helper()
	c, err := tr.Min()
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	if err != nil {
		t.Fatalf("Min: %v", err)
	}
	var keys []float64
	for {
		keys = append(keys, c.Key())
		if !c.Next() {
			break
		}
	}
	if c.Err() != nil {
		t.Fatalf("cursor error: %v", c.Err())
	}
	return keys
}

func TestEmptyTree(t *testing.T) {
	dev := blockio.NewViewOnlyDevice(256)
	tr, err := BulkLoad(dev, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("len=%d height=%d", tr.Len(), tr.Height())
	}
	if _, err := tr.SearchCeil(0); !errors.Is(err, ErrNotFound) {
		t.Errorf("SearchCeil on empty = %v, want ErrNotFound", err)
	}
	if _, _, err := tr.Last(nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("Last on empty = %v, want ErrNotFound", err)
	}
}

func TestBulkLoadSmall(t *testing.T) {
	dev := blockio.NewViewOnlyDevice(4096)
	keys := []float64{1, 2, 3, 5, 8, 13}
	tr, err := BulkLoad(dev, 8, mkEntries(keys))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(keys) {
		t.Errorf("Len = %d", tr.Len())
	}
	got := collect(t, tr)
	if len(got) != len(keys) {
		t.Fatalf("collected %d keys, want %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Errorf("key %d = %g, want %g", i, got[i], keys[i])
		}
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	dev := blockio.NewViewOnlyDevice(4096)
	if _, err := BulkLoad(dev, 8, mkEntries([]float64{2, 1})); err == nil {
		t.Error("unsorted input accepted")
	}
}

func TestBulkLoadMultiLevel(t *testing.T) {
	// Small blocks force several levels.
	dev := blockio.NewViewOnlyDevice(128)
	n := 5000
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(i) * 0.5
	}
	tr, err := BulkLoad(dev, 8, mkEntries(keys))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 3 {
		t.Errorf("height = %d, want >= 3 with 128B blocks", tr.Height())
	}
	got := collect(t, tr)
	if len(got) != n {
		t.Fatalf("collected %d, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != keys[i] {
			t.Fatalf("key %d mismatch", i)
		}
	}
	// Values carried through: SearchCeil on each key returns ordinal.
	for i := 0; i < n; i += 97 {
		c, err := tr.SearchCeil(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if c.Key() != keys[i] || dec8(c.Value()) != uint64(i) {
			t.Fatalf("SearchCeil(%g): key=%g val=%d", keys[i], c.Key(), dec8(c.Value()))
		}
	}
	k, v, err := tr.Last(nil)
	if err != nil || k != keys[n-1] || dec8(v) != uint64(n-1) {
		t.Errorf("Last = (%g, %d, %v), want (%g, %d)", k, dec8(v), err, keys[n-1], n-1)
	}
}

func TestSearchCeilSemantics(t *testing.T) {
	dev := blockio.NewViewOnlyDevice(128)
	keys := []float64{10, 20, 20, 20, 30, 40}
	tr, err := BulkLoad(dev, 8, mkEntries(keys))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{-1, 10}, {10, 10}, {10.5, 20}, {20, 20}, {25, 30}, {40, 40},
	}
	for _, c := range cases {
		cur, err := tr.SearchCeil(c.x)
		if err != nil {
			t.Fatalf("SearchCeil(%g): %v", c.x, err)
		}
		if cur.Key() != c.want {
			t.Errorf("SearchCeil(%g) = %g, want %g", c.x, cur.Key(), c.want)
		}
	}
	if _, err := tr.SearchCeil(41); !errors.Is(err, ErrNotFound) {
		t.Errorf("SearchCeil past end = %v, want ErrNotFound", err)
	}
	// Duplicate run: first of the duplicates is returned, and scanning
	// yields all of them.
	cur, _ := tr.SearchCeil(20)
	count := 0
	for cur.Key() == 20 {
		count++
		if !cur.Next() {
			break
		}
	}
	if count != 3 {
		t.Errorf("duplicate scan found %d copies, want 3", count)
	}
}

func TestValueSizeValidation(t *testing.T) {
	dev := blockio.NewViewOnlyDevice(4096)
	if _, err := BulkLoad(dev, 16, []Entry{{Key: 1, Value: make([]byte, 4)}}); err == nil {
		t.Error("wrong value size accepted by BulkLoad")
	}
	if _, err := BulkLoad(blockio.NewViewOnlyDevice(32), 64, nil); err == nil {
		t.Error("impossible geometry accepted")
	}
}

func TestLargeValues(t *testing.T) {
	dev := blockio.NewViewOnlyDevice(4096)
	vs := 100
	entries := make([]Entry, 300)
	for i := range entries {
		v := make([]byte, vs)
		v[0] = byte(i)
		v[vs-1] = byte(i * 3)
		entries[i] = Entry{Key: float64(i), Value: v}
	}
	tr, err := BulkLoad(dev, vs, entries)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i += 37 {
		c, err := tr.SearchCeil(float64(i))
		if err != nil {
			t.Fatal(err)
		}
		v := c.Value()
		if v[0] != byte(i) || v[vs-1] != byte(i*3) {
			t.Fatalf("value payload corrupted at %d", i)
		}
	}
}

// Property: SearchCeil agrees with a sorted-slice reference.
func TestSearchCeilMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = math.Floor(rng.Float64() * 100)
		}
		sort.Float64s(keys)
		tr, err := BulkLoad(blockio.NewViewOnlyDevice(128), 8, mkEntries(keys))
		if err != nil {
			return false
		}
		for probe := 0; probe < 30; probe++ {
			x := rng.Float64()*120 - 10
			idx := sort.SearchFloat64s(keys, x)
			c, err := tr.SearchCeil(x)
			if idx == n {
				if !errors.Is(err, ErrNotFound) {
					return false
				}
				continue
			}
			if err != nil || c.Key() != keys[idx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTreeOnFileDevice(t *testing.T) {
	dev, err := blockio.OpenFileDevice(t.TempDir()+"/tree.bin", 512)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	keys := make([]float64, 1000)
	for i := range keys {
		keys[i] = float64(i)
	}
	tr, err := BulkLoad(dev, 8, mkEntries(keys))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, tr)
	if len(got) != 1000 {
		t.Fatalf("len = %d", len(got))
	}
}

func TestIOCountsScaleWithHeight(t *testing.T) {
	dev := blockio.NewViewOnlyDevice(128)
	keys := make([]float64, 20000)
	for i := range keys {
		keys[i] = float64(i)
	}
	tr, err := BulkLoad(dev, 8, mkEntries(keys))
	if err != nil {
		t.Fatal(err)
	}
	dev.ResetStats()
	if _, err := tr.SearchCeil(10000); err != nil {
		t.Fatal(err)
	}
	reads := dev.Stats().Reads
	if int(reads) < tr.Height() || int(reads) > tr.Height()+1 {
		t.Errorf("search reads = %d, height = %d: want one read per level", reads, tr.Height())
	}
}

// Node pages store their entry counts as uint16, so a block size that
// would fit more entries than that is refused rather than wrapping the
// count: about 1 MiB is where an internal node's key capacity passes
// math.MaxUint16.
func TestCapsBoundedByCountField(t *testing.T) {
	const limit = internalHeaderSize + childSize + math.MaxUint16*(keySize+childSize) // 65,535 keys exactly
	if _, err := BulkLoad(blockio.NewViewOnlyDevice(limit+keySize+childSize), 8, nil); err == nil {
		t.Fatal("internal nodes of 65,536 keys accepted")
	}
	if _, err := Open(blockio.NewViewOnlyDevice(4<<20), Meta{Height: 1, ValueSize: 8}); err == nil {
		t.Fatal("Open accepted 4 MiB pages")
	}
	keys := make([]float64, 70000)
	for i := range keys {
		keys[i] = float64(i)
	}
	tr, err := BulkLoad(blockio.NewViewOnlyDevice(limit), 8, mkEntries(keys))
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, tr); len(got) != len(keys) {
		t.Fatalf("scan returned %d of %d entries", len(got), len(keys))
	}
	if _, err := tr.SearchCeil(69999.5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SearchCeil past the last key: %v", err)
	}
	c, err := tr.SearchCeil(68000.5)
	if err != nil || c.Key() != 68001 || dec8(c.Value()) != 68001 {
		t.Fatalf("SearchCeil(68000.5): err %v", err)
	}
	c.Close()
}

// TestSearchCeilCounted: a counted search and its cursor's counted walk
// charge every page view to the call's count, none to the device until
// the count is folded, and the same views SearchCeil and Next count on
// the device.
func TestSearchCeilCounted(t *testing.T) {
	keys := make([]float64, 3000)
	for i := range keys {
		keys[i] = float64(i)
	}
	dev := blockio.NewViewOnlyDevice(256)
	tr, err := BulkLoad(dev, 8, mkEntries(keys))
	if err != nil {
		t.Fatal(err)
	}
	walk := func(c Cursor, ios *blockio.IOCount) {
		for step := 0; step < 100 && c.NextCounted(ios); step++ {
		}
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
		c.Close()
	}
	dev.ResetStats()
	c, err := tr.SearchCeil(1234.5)
	if err != nil {
		t.Fatal(err)
	}
	walk(c, nil)
	want := dev.Stats().Reads

	dev.ResetStats()
	var ios blockio.IOCount
	if c, err = tr.SearchCeilCounted(1234.5, &ios); err != nil {
		t.Fatal(err)
	}
	walk(c, &ios)
	if r := dev.Stats().Reads; r != 0 {
		t.Fatalf("counted search: %d reads on the device before the fold", r)
	}
	if ios.Reads() != want {
		t.Fatalf("counted search charged %d reads, SearchCeil counts %d", ios.Reads(), want)
	}
	ios.Fold(dev)
	if r := dev.Stats().Reads; r != want {
		t.Fatalf("after the fold the device counts %d reads, want %d", r, want)
	}
}
