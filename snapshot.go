package temporalrank

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"temporalrank/internal/approx"
	"temporalrank/internal/blockio"
	"temporalrank/internal/exact"
	"temporalrank/internal/scatter"
	"temporalrank/internal/snapshot"
)

// This file wires the internal/snapshot paged store to the public
// types: Checkpoint serializes a DB, its indexes, and the planner
// configuration into one snapshot file; OpenSnapshot reconstructs a
// fully queryable Planner from it without rebuilding any index (every
// index's node pages are restored as a raw device image, so even the
// B+-tree splits come back byte-identical). A snapshot file is written
// once, to a .tmp sibling, and renamed into place only after its commit
// — a crash mid-checkpoint leaves the previous file intact — and every
// page is CRC-verified on the way back in, so a torn or bit-rotted file
// fails with ErrBadSnapshot instead of loading wrong.
//
// Stream layout of one snapshot (names are the restore contract):
//
//	manifest        gob snapManifest: shape, data version, cache config
//	dataset         flat per-series vertex arrays
//	index.<i>.meta  gob indexState: method + typed handle state
//	index.<i>.pages raw device page image of index i
//	shard           gob shardManifest (cluster checkpoints only)

// snapManifest is the snapshot's table of shape facts: enough to
// validate every other stream against, plus the planner state that is
// not derivable from the data (append counter, result cache bound).
type snapManifest struct {
	NumSeries    int
	NumSegments  int
	DataVersion  uint64
	CacheEntries int
	NumIndexes   int
}

// indexState is one index's method tag and typed handle state. Exactly
// one of the six state pointers is set, matching Method; the raw page
// image the handles point into travels in the sibling pages stream.
// SearchM and SearchR are the index's last ε search (zero when none
// chose its ε), so a restored planner compacts as the one that wrote
// the snapshot would have.
type indexState struct {
	Method      string
	BlockSize   int
	CacheBlocks int
	SearchM     float64
	SearchR     int
	E1          *exact.Exact1State
	E2          *exact.Exact2State
	E3          *exact.Exact3State
	A1          *approx.Appx1State
	A2          *approx.Appx2State
	A2P         *approx.Appx2PlusState
}

// shardManifest identifies one cluster shard's snapshot file and
// carries the global-ID routing needed to reassemble the cluster.
type shardManifest struct {
	Shard     int
	NumShards int
	NumSeries int   // global object count m
	Global    []int // ascending global IDs of this shard's local series
}

// maxSnapshotIndexes bounds the index count a manifest may claim —
// far above any real configuration, far below anything that could
// balloon allocations from a corrupt count.
const maxSnapshotIndexes = 4096

// Checkpoint writes the planner's DB, every registered index, and the
// result cache configuration to the snapshot file at path, replacing
// any file there atomically: the snapshot is written to path.tmp and
// renamed over path only once complete and synced, and the directory is
// synced after the rename. An interrupted checkpoint can lose the new
// snapshot but never the old one. OpenSnapshot(path) yields an
// equivalent planner.
func (p *Planner) Checkpoint(path string) error {
	return commitSnapshotFile(path, p, nil)
}

// checkpointWith writes the planner's snapshot onto dev, which must be
// empty, with an optional cluster shard manifest riding along.
//
// The memtable is drained first (one synchronous compaction), so every
// append acknowledged before this call is part of the checkpointed
// base. Appends landing during or after the drain go to the next
// generation's memtable and are simply not in this snapshot — the
// usual checkpoint semantics.
func (p *Planner) checkpointWith(dev blockio.Device, shard *shardManifest) error {
	entries := 0
	if cache := p.cache.Load(); cache != nil {
		entries = cache.Cap()
	}
	if err := p.Compact(context.Background()); err != nil {
		return err
	}
	base := p.stack()
	return checkpointIndexes(dev, base.db, base.indexes, entries, shard)
}

// checkpointIndexes writes a snapshot of db and its (immutable)
// indexes, holding db.mu shared.
func checkpointIndexes(dev blockio.Device, db *DB, ixs []*Index, cacheEntries int, shard *shardManifest) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	cp, err := snapshot.Begin(dev)
	if err != nil {
		return err
	}
	man := snapManifest{
		NumSeries:    db.ds.NumSeries(),
		NumSegments:  db.ds.NumSegments(),
		DataVersion:  db.version.Load(),
		CacheEntries: cacheEntries,
		NumIndexes:   len(ixs),
	}
	if err := writeGobStream(cp, "manifest", snapshot.TypeManifest, &man); err != nil {
		return err
	}
	w, err := cp.Stream("dataset", snapshot.TypeDataset)
	if err != nil {
		return err
	}
	if err := snapshot.WriteDataset(w, db.ds); err != nil {
		return fmt.Errorf("temporalrank: checkpoint dataset: %w", err)
	}
	if err := w.Close(); err != nil {
		return err
	}
	for i, ix := range ixs {
		st, err := indexStateOf(ix)
		if err != nil {
			return err
		}
		if err := writeGobStream(cp, fmt.Sprintf("index.%d.meta", i), snapshot.TypeIndexMeta, st); err != nil {
			return err
		}
		w, err := cp.Stream(fmt.Sprintf("index.%d.pages", i), snapshot.TypeIndexPages)
		if err != nil {
			return err
		}
		if err := snapshot.WriteDevicePages(w, ix.m.Device()); err != nil {
			return fmt.Errorf("temporalrank: checkpoint index %d pages: %w", i, err)
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	if shard != nil {
		if err := writeGobStream(cp, "shard", snapshot.TypeShardMeta, shard); err != nil {
			return err
		}
	}
	return cp.Commit()
}

// indexStateOf captures one index's typed handle state.
func indexStateOf(ix *Index) (*indexState, error) {
	dev := ix.m.Device()
	st := &indexState{Method: ix.m.Name(), BlockSize: dev.BlockSize(), SearchM: ix.searchM, SearchR: ix.searchR}
	if bp, ok := dev.(*blockio.BufferPool); ok {
		st.CacheBlocks = bp.Capacity()
	}
	switch m := ix.m.(type) {
	case *exact.Exact1:
		s := m.State()
		st.E1 = &s
	case *exact.Exact2:
		s := m.State()
		st.E2 = &s
	case *exact.Exact3:
		s := m.State()
		st.E3 = &s
	case *approx.Appx1:
		s := m.State()
		st.A1 = &s
	case *approx.Appx2:
		s := m.State()
		st.A2 = &s
	case *approx.Appx2Plus:
		s := m.State()
		st.A2P = &s
	default:
		return nil, fmt.Errorf("temporalrank: method %s does not support checkpoint: %w", ix.m.Name(), ErrBadConfig)
	}
	return st, nil
}

// OpenSnapshot restores the snapshot file at path into a fully
// queryable Planner — DB, every index, and the result cache
// configuration — performing zero index rebuilds: each index's pages
// are loaded as a raw image and its handles reattached. Every page is
// CRC-verified; a torn, truncated, or corrupted snapshot fails with an
// error wrapping ErrBadSnapshot (or ErrSnapshotVersion for a snapshot
// written by another format version), never a silently wrong planner.
// A missing path is an error, and no file is created.
//
// The restored stack lives on in-memory devices: the file is only read,
// and is closed before OpenSnapshot returns.
func OpenSnapshot(path string) (*Planner, error) {
	p, _, err := openSnapshotFile(path)
	return p, err
}

// openSnapshotFile restores the snapshot file at path, returning its
// shard manifest too (nil for single-node snapshots).
func openSnapshotFile(path string) (*Planner, *shardManifest, error) {
	dev, err := blockio.OpenFileDeviceAt(path, blockio.DefaultBlockSize)
	if err != nil {
		return nil, nil, err
	}
	p, sm, err := openSnapshotStore(dev)
	if cerr := dev.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("temporalrank: restore %s: %w", path, err)
	}
	return p, sm, nil
}

// openSnapshotStore restores the snapshot on dev, returning its shard
// manifest too (nil for single-node snapshots).
func openSnapshotStore(dev blockio.Device) (*Planner, *shardManifest, error) {
	store, err := snapshot.Open(dev)
	if err != nil {
		return nil, nil, err
	}
	var man snapManifest
	if err := readGobStream(store, "manifest", snapshot.TypeManifest, &man); err != nil {
		return nil, nil, err
	}
	if man.NumIndexes < 0 || man.NumIndexes > maxSnapshotIndexes {
		return nil, nil, fmt.Errorf("temporalrank: snapshot claims %d indexes: %w", man.NumIndexes, ErrBadSnapshot)
	}
	r, err := store.OpenStream("dataset", snapshot.TypeDataset)
	if err != nil {
		return nil, nil, err
	}
	ds, err := snapshot.ReadDataset(r)
	if err != nil {
		return nil, nil, err
	}
	if ds.NumSeries() != man.NumSeries || ds.NumSegments() != man.NumSegments {
		return nil, nil, fmt.Errorf("temporalrank: snapshot dataset has %d series / %d segments, manifest says %d / %d: %w",
			ds.NumSeries(), ds.NumSegments(), man.NumSeries, man.NumSegments, ErrBadSnapshot)
	}
	db := NewDBFromDataset(ds)
	db.version.Store(man.DataVersion)
	ixs := make([]*Index, man.NumIndexes)
	for i := range ixs {
		var st indexState
		if err := readGobStream(store, fmt.Sprintf("index.%d.meta", i), snapshot.TypeIndexMeta, &st); err != nil {
			return nil, nil, err
		}
		pr, err := store.OpenStream(fmt.Sprintf("index.%d.pages", i), snapshot.TypeIndexPages)
		if err != nil {
			return nil, nil, err
		}
		if ixs[i], err = restoreIndex(db, &st, pr); err != nil {
			return nil, nil, fmt.Errorf("temporalrank: restore index %d (%s): %w", i, st.Method, err)
		}
	}
	p, err := NewPlanner(db, ixs...)
	if err != nil {
		return nil, nil, err
	}
	if man.CacheEntries > 0 {
		p.EnableResultCache(man.CacheEntries)
	}
	var sm *shardManifest
	for _, info := range store.Streams() {
		if info.Name == "shard" {
			sm = new(shardManifest)
			if err := readGobStream(store, "shard", snapshot.TypeShardMeta, sm); err != nil {
				return nil, nil, err
			}
			break
		}
	}
	return p, sm, nil
}

// restoreIndex loads one index's page image and reattaches its typed
// handles. db is freshly constructed and not yet shared, so its
// dataset is accessed directly.
func restoreIndex(db *DB, st *indexState, pages io.Reader) (*Index, error) {
	mem, err := snapshot.ReadDevicePages(pages)
	if err != nil {
		return nil, err
	}
	if mem.BlockSize() != st.BlockSize {
		return nil, fmt.Errorf("temporalrank: page image block size %d, meta says %d: %w",
			mem.BlockSize(), st.BlockSize, ErrBadSnapshot)
	}
	var dev blockio.Device = mem
	if st.CacheBlocks > 0 {
		dev = blockio.NewBufferPool(mem, st.CacheBlocks)
	}
	var m exact.Method
	switch {
	case st.E1 != nil:
		m, err = exact.RestoreExact1(dev, db.ds, *st.E1)
	case st.E2 != nil:
		m, err = exact.RestoreExact2(dev, db.ds, *st.E2)
	case st.E3 != nil:
		m, err = exact.RestoreExact3(dev, db.ds, *st.E3)
	case st.A1 != nil:
		m, err = approx.RestoreAppx1(dev, db.ds, *st.A1)
	case st.A2 != nil:
		m, err = approx.RestoreAppx2(dev, db.ds, *st.A2)
	case st.A2P != nil:
		m, err = approx.RestoreAppx2Plus(dev, db.ds, *st.A2P)
	default:
		return nil, fmt.Errorf("temporalrank: index meta carries no state: %w", ErrBadSnapshot)
	}
	if err != nil {
		return nil, err
	}
	if m.Name() != st.Method {
		return nil, fmt.Errorf("temporalrank: index meta says %s but state restores %s: %w",
			st.Method, m.Name(), ErrBadSnapshot)
	}
	// Reconstruct the build configuration so memtable compaction can
	// rebuild an equivalent index later. An ε that came from a TargetR
	// search keeps its search record, so the restored planner rebuilds
	// at that ε and searches again when M doubles, as the planner that
	// wrote the snapshot would; any other ε is pinned as Epsilon.
	ix := &Index{m: m, db: db}
	ix.opts = Options{Method: Method(st.Method), BlockSize: st.BlockSize, CacheBlocks: st.CacheBlocks}
	if a, ok := m.(approx.Index); ok {
		ix.opts.KMax = a.KMax()
		if st.SearchR > 0 {
			ix.opts.TargetR = st.SearchR
			ix.searchM, ix.searchR = st.SearchM, st.SearchR
		} else {
			ix.opts.Epsilon = a.Epsilon()
		}
	}
	return ix, nil
}

// SnapshotFilePattern matches the per-shard snapshot files a cluster
// checkpoint writes under its directory.
const SnapshotFilePattern = "shard-*.trsnap"

// shardSnapshotPath names shard i's snapshot file.
func shardSnapshotPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.trsnap", shard))
}

// listSnapshotFiles returns the shard snapshot files under dir, sorted.
func listSnapshotFiles(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, SnapshotFilePattern))
	sort.Strings(paths)
	return paths, err
}

// openSnapshotDevice creates (truncating) the file device a snapshot is
// written to, so a stale .tmp from a crashed run is never reused. A
// package variable so failure-injection tests can substitute a
// FaultDevice-wrapping factory.
var openSnapshotDevice = func(path string) (blockio.Device, error) {
	return blockio.OpenFileDevice(path, blockio.DefaultBlockSize)
}

// syncDir fsyncs directory dir, making the renames into it durable: a
// rename only changes the directory, so syncing the renamed file does
// not commit it. A package variable so tests can inject a failing sync.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSnapshotFile checkpoints a planner (and its shard manifest, if
// any) into a fresh file at path.
func writeSnapshotFile(path string, p *Planner, sm *shardManifest) error {
	dev, err := openSnapshotDevice(path)
	if err != nil {
		return err
	}
	err = p.checkpointWith(dev, sm)
	if cerr := dev.Close(); err == nil {
		err = cerr
	}
	return err
}

// commitSnapshotFile writes a planner's snapshot to path atomically:
// the stack lands in path.tmp first and is renamed over path only once
// fully written, synced and closed, so a crash or write failure never
// leaves a torn file under the snapshot name; the directory is synced
// after the rename. The .tmp suffix keeps partial files invisible to
// SnapshotFilePattern.
func commitSnapshotFile(path string, p *Planner, sm *shardManifest) error {
	tmp := path + ".tmp"
	if err := writeSnapshotFile(tmp, p, sm); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// Checkpoint writes every non-empty shard's stack to its own snapshot
// file under dir (created if needed), named shard-<n>.trsnap. Shards
// checkpoint in parallel, each into a .tmp sibling; only after every
// shard has written successfully are the temp files renamed into
// place, and the directory is synced once after the renames so the
// new file set survives a power failure. A failure on any shard
// therefore removes all temps and leaves the directory's previous file
// set untouched — it never holds a mixed-generation cluster snapshot.
// (The commit window that remains is the rename loop itself:
// same-directory metadata operations, no data writes.) Appends to a
// shard wait for that shard's write only.
func (c *Cluster) Checkpoint(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("temporalrank: cluster checkpoint: %w", err)
	}
	tmps := make([]string, len(c.locals))
	removeTemps := func() {
		for _, tmp := range tmps {
			if tmp != "" {
				os.Remove(tmp)
			}
		}
	}
	err := scatter.Run(context.Background(), len(c.locals), runtime.GOMAXPROCS(0), func(_ context.Context, i int) error {
		sh := c.locals[i]
		if sh == nil {
			return nil
		}
		tmp := shardSnapshotPath(dir, i) + ".tmp"
		if err := writeSnapshotFile(tmp, sh.planner, sh.meta); err != nil {
			os.Remove(tmp)
			return fmt.Errorf("temporalrank: cluster checkpoint shard %d: %w", i, err)
		}
		tmps[i] = tmp
		return nil
	})
	if err != nil {
		removeTemps()
		return err
	}
	for i, tmp := range tmps {
		if tmp == "" {
			continue
		}
		tmps[i] = ""
		if err := os.Rename(tmp, shardSnapshotPath(dir, i)); err != nil {
			removeTemps()
			return fmt.Errorf("temporalrank: cluster checkpoint shard %d: %w", i, err)
		}
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("temporalrank: cluster checkpoint: sync %s: %w", dir, err)
	}
	return nil
}

// OpenClusterSnapshot restores a cluster from the per-shard snapshot
// files Cluster.Checkpoint wrote under dir. The shard count, the
// series-to-shard routing, and every shard's DB, indexes, and planner
// come from the snapshots; only the runtime knobs of opts are applied
// (ResultCache, Memtable — the rest is ignored, since the partitioning
// is already fixed in the files). Shards restore in parallel. Like
// every restore path, no index is rebuilt.
func OpenClusterSnapshot(dir string, opts ClusterOptions) (*Cluster, error) {
	paths, err := listSnapshotFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("temporalrank: no %s files in %s: %w", SnapshotFilePattern, dir, ErrBadSnapshot)
	}
	loaded := make([]*localShard, len(paths))
	err = scatter.Run(context.Background(), len(paths), runtime.GOMAXPROCS(0), func(_ context.Context, i int) error {
		sh, err := openShardFile(paths[i], opts.Memtable)
		loaded[i] = sh
		return err
	})
	if err != nil {
		return nil, err
	}
	numShards, numSeries := loaded[0].meta.NumShards, loaded[0].meta.NumSeries
	if numShards < 1 || numSeries < 1 || numSeries > maxSnapshotIndexes*maxSnapshotIndexes {
		return nil, fmt.Errorf("temporalrank: implausible cluster shape %d shards / %d series: %w",
			numShards, numSeries, ErrBadSnapshot)
	}
	locals := make([]*localShard, numShards)
	for i, sh := range loaded {
		sm := sh.meta
		if sm.NumShards != numShards || sm.NumSeries != numSeries {
			return nil, fmt.Errorf("temporalrank: %s disagrees on cluster shape (%d/%d vs %d/%d): %w",
				paths[i], sm.NumShards, sm.NumSeries, numShards, numSeries, ErrBadSnapshot)
		}
		if sm.Shard < 0 || sm.Shard >= numShards {
			return nil, fmt.Errorf("temporalrank: %s names shard %d of %d: %w", paths[i], sm.Shard, numShards, ErrBadSnapshot)
		}
		if locals[sm.Shard] != nil {
			return nil, fmt.Errorf("temporalrank: duplicate snapshot for shard %d: %w", sm.Shard, ErrBadSnapshot)
		}
		locals[sm.Shard] = sh
	}
	return assembleCluster(locals, numSeries, opts, ErrBadSnapshot)
}

// openShardFile restores one shard snapshot file into a shard stack
// (see newLocalShard for mt). No index is rebuilt; the file is closed
// before returning.
func openShardFile(path string, mt *MemtableOptions) (*localShard, error) {
	p, sm, err := openSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	if sm == nil {
		return nil, fmt.Errorf("temporalrank: %s is not a cluster shard snapshot: %w", path, ErrBadSnapshot)
	}
	sh, err := newLocalShard(p, sm, mt)
	if err != nil {
		return nil, fmt.Errorf("temporalrank: restore %s: %w", path, err)
	}
	return sh, nil
}

// writeGobStream encodes v as one gob-typed stream of the checkpoint.
func writeGobStream(cp *snapshot.Checkpoint, name string, typ byte, v any) error {
	w, err := cp.Stream(name, typ)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(v); err != nil {
		return fmt.Errorf("temporalrank: checkpoint stream %q: %w", name, err)
	}
	return w.Close()
}

// readGobStream decodes one gob stream; decode failures are typed
// ErrBadSnapshot (the pages passed CRC, so a gob error means a
// mis-produced or tampered stream, not random corruption).
func readGobStream(store *snapshot.Store, name string, typ byte, v any) error {
	r, err := store.OpenStream(name, typ)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(r).Decode(v); err != nil {
		return fmt.Errorf("temporalrank: snapshot stream %q: %v: %w", name, err, ErrBadSnapshot)
	}
	return nil
}
