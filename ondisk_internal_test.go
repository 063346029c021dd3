package temporalrank

import (
	"bytes"
	"path/filepath"
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/gen"
)

// TestOnDiskIndexFileHoldsWholeIndex: an index built with OnDiskPath
// behind a buffer pool has every page in its file when the build
// returns, not some of them only in the pool.
func TestOnDiskIndexFileHoldsWholeIndex(t *testing.T) {
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 200, Navg: 50, Seed: 1, Span: 1000})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "exact3.idx")
	ix, err := NewDBFromDataset(ds).BuildIndex(Options{Method: MethodExact3, OnDiskPath: path, CacheBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	dev := ix.m.Device()
	// Read the whole file before reading anything through the pool: a
	// pool read could evict a frame and write it back.
	file, err := blockio.OpenFileDeviceAt(path, dev.BlockSize())
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	n := dev.NumPages()
	if file.NumPages() != n {
		t.Fatalf("%s holds %d pages, the index %d", path, file.NumPages(), n)
	}
	onDisk := make([][]byte, n)
	for id := range onDisk {
		onDisk[id] = make([]byte, dev.BlockSize())
		if err := file.Read(blockio.PageID(id), onDisk[id]); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, dev.BlockSize())
	differ := 0
	for id, want := range onDisk {
		if err := dev.Read(blockio.PageID(id), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			differ++
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d pages in %s differ from the index", differ, n, path)
	}
}
