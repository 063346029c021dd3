package temporalrank

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
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
