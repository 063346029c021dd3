package temporalrank

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/gen"
)

// TestClusterCheckpointPartialFailureAtomic injects a device fault
// into one shard's snapshot write mid-Checkpoint and asserts the
// directory's previous generation survives untouched: no final file is
// replaced, no .tmp residue is left behind, and the directory still
// restores to the pre-checkpoint state. This is the guarantee that a
// snapshot directory never holds a mixed-generation cluster snapshot.
func TestClusterCheckpointPartialFailureAtomic(t *testing.T) {
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 12, Navg: 8, Seed: 9, Span: 100})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]SeriesInput, ds.NumSeries())
	for i, s := range ds.AllSeries() {
		nv := s.NumSegments() + 1
		in := SeriesInput{Times: make([]float64, nv), Values: make([]float64, nv)}
		for j := 0; j < nv; j++ {
			in.Times[j] = s.VertexTime(j)
			in.Values[j] = s.VertexValue(j)
		}
		inputs[i] = in
	}
	c, err := NewCluster(inputs, ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	before := readSnapshotFiles(t, dir)
	if len(before) != 2 {
		t.Fatalf("seed checkpoint wrote %d files, want 2", len(before))
	}

	// Mutate the cluster so generation 2 would differ, then make shard
	// 1's write fail after a few operations.
	if err := c.Append(0, 200, 5); err != nil {
		t.Fatal(err)
	}
	orig := openSnapshotDevice
	defer func() { openSnapshotDevice = orig }()
	openSnapshotDevice = func(path string) (blockio.Device, error) {
		dev, err := orig(path)
		if err != nil {
			return nil, err
		}
		if strings.Contains(filepath.Base(path), "shard-0001") {
			return blockio.NewFaultDevice(dev, 10), nil
		}
		return dev, nil
	}
	err = c.Checkpoint(dir)
	if !errors.Is(err, blockio.ErrInjected) {
		t.Fatalf("checkpoint with injected fault: got %v, want ErrInjected", err)
	}

	// The directory must be byte-identical to the previous generation —
	// shard 0's successful write must NOT have been committed.
	after := readSnapshotFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("file set changed: %d files, want %d", len(after), len(before))
	}
	for name, want := range before {
		if !bytes.Equal(after[name], want) {
			t.Fatalf("%s changed despite the failed checkpoint", name)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp residue %s left after failed checkpoint", e.Name())
		}
	}

	// And the untouched generation still restores (to the pre-append
	// state, which is the point: old but consistent).
	restored, err := OpenClusterSnapshot(dir, ClusterOptions{})
	if err != nil {
		t.Fatalf("restore after failed checkpoint: %v", err)
	}
	if restored.NumSeries() != c.NumSeries() {
		t.Fatalf("restored %d series, want %d", restored.NumSeries(), c.NumSeries())
	}

	// With the fault gone, the next checkpoint converges the directory
	// to the new generation.
	openSnapshotDevice = orig
	if err := c.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	converged := readSnapshotFiles(t, dir)
	same := true
	for name, want := range before {
		if !bytes.Equal(converged[name], want) {
			same = false
		}
	}
	if same {
		t.Fatal("retried checkpoint did not advance the generation")
	}
}

// TestClusterCheckpointSyncsDirectory: the renames that publish a
// cluster checkpoint are durable only once the directory is synced, so
// a failing directory sync must fail the checkpoint.
func TestClusterCheckpointSyncsDirectory(t *testing.T) {
	c, err := NewCluster([]SeriesInput{
		{Times: []float64{0, 1, 2}, Values: []float64{1, 2, 3}},
		{Times: []float64{0, 1, 2}, Values: []float64{3, 2, 1}},
	}, ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	errSync := errors.New("injected directory sync failure")
	var synced []string
	orig := syncDir
	defer func() { syncDir = orig }()
	syncDir = func(d string) error {
		synced = append(synced, d)
		return errSync
	}
	if err := c.Checkpoint(dir); !errors.Is(err, errSync) {
		t.Fatalf("Checkpoint with a failing directory sync: got %v, want the sync error", err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("synced %v, want exactly [%s]", synced, dir)
	}
}

// TestCheckpointCrashSafety is the fault-injection sweep: a checkpoint
// over an existing snapshot file is interrupted at every operation
// budget on its .tmp device, from zero until the first budget at which
// it completes. After every interruption the path must still hold the
// previous snapshot byte for byte and restore it bit-exactly, with no
// .tmp left behind; the completing checkpoint must restore the new data.
func TestCheckpointCrashSafety(t *testing.T) {
	const maxBudget = 20000
	ctx := context.Background()
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 6, Navg: 6, Seed: 21, Span: 300})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDBFromDataset(ds)
	ix, err := db.BuildIndex(Options{Method: MethodExact3, BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(db, ix)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.trsnap")
	if err := p.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	refQuery := SumQuery(4, db.Start(), db.End())
	ansA, err := p.Run(ctx, refQuery)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		if err := p.Append(n, db.End()+1, float64(n)); err != nil {
			t.Fatal(err)
		}
	}
	// Drain first, so ansB comes from the same compacted stack a
	// completed checkpoint holds.
	if err := p.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	ansB, err := p.Run(ctx, refQuery)
	if err != nil {
		t.Fatal(err)
	}

	orig := openSnapshotDevice
	defer func() { openSnapshotDevice = orig }()
	for budget := int64(0); ; budget++ {
		if budget > maxBudget {
			t.Fatalf("checkpoint still failing at budget %d", maxBudget)
		}
		openSnapshotDevice = func(path string) (blockio.Device, error) {
			dev, err := orig(path)
			if err != nil {
				return nil, err
			}
			return blockio.NewFaultDevice(dev, budget), nil
		}
		cerr := p.Checkpoint(path)
		openSnapshotDevice = orig
		if cerr != nil && !errors.Is(cerr, blockio.ErrInjected) {
			t.Fatalf("budget=%d: interrupted checkpoint returned untyped error: %v", budget, cerr)
		}
		restored, err := OpenSnapshot(path)
		if err != nil {
			t.Fatalf("budget=%d: %s unrestorable: %v", budget, path, err)
		}
		got, err := restored.Run(ctx, refQuery)
		if err != nil {
			t.Fatalf("budget=%d: restored planner query: %v", budget, err)
		}
		if cerr == nil {
			if !slices.Equal(got.Results, ansB.Results) || restored.DB().NumSegments() != db.NumSegments()+4 {
				t.Fatalf("budget=%d: completed checkpoint restored stale or wrong data", budget)
			}
			break // the first completing budget ends the sweep
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("budget=%d: interrupted checkpoint changed %s", budget, path)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("budget=%d: interrupted checkpoint left %s.tmp (stat: %v)", budget, path, err)
		}
		if !slices.Equal(got.Results, ansA.Results) || restored.DB().NumSegments() != db.NumSegments() {
			t.Fatalf("budget=%d: restored data is not the previous snapshot (%d results, %d segments)",
				budget, len(got.Results), restored.DB().NumSegments())
		}
	}
}

// readSnapshotFiles maps each shard snapshot file name to its bytes.
func readSnapshotFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := listSnapshotFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = b
	}
	return out
}
