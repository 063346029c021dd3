package temporalrank

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/gen"
)

// TestOnDiskIndexFileHoldsWholeIndex: an index built with OnDiskPath
// has every page in its file when the build returns, and reads them
// from the file itself: CacheBlocks puts no buffer pool in front of an
// on-disk index.
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
	if _, ok := dev.(*blockio.BufferPool); ok {
		t.Fatal("the on-disk index sits behind a buffer pool")
	}
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

// TestOnDiskIndexCheckpointRoundTrip: a planner over an on-disk index
// checkpoints, and the restored planner, on in-memory devices, answers
// every query exactly as the on-disk one did.
func TestOnDiskIndexCheckpointRoundTrip(t *testing.T) {
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 120, Navg: 30, Seed: 4, Span: 1000})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db := NewDBFromDataset(ds)
	ix, err := db.BuildIndex(Options{Method: MethodExact3, OnDiskPath: filepath.Join(dir, "exact3.idx"), CacheBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(db, ix)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "p.trsnap")
	if err := p.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := restored.Indexes()[0].m.Device().(*blockio.MemDevice); !ok {
		t.Fatalf("restored index on %T, want *blockio.MemDevice", restored.Indexes()[0].m.Device())
	}
	ctx := context.Background()
	lo, span := ds.Start(), ds.Span()
	for i := 0; i < 20; i++ {
		t1 := lo + span*float64(i)/40
		for _, q := range []Query{SumQuery(10, t1, t1+span/3), AvgQuery(5, t1, t1+span/5), InstantQuery(3, t1)} {
			want, err := p.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("%+v: restored %v, on-disk %v", q, got.Results, want.Results)
			}
		}
	}
}
