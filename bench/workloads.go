package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"temporalrank"
	"temporalrank/internal/gen"
	"temporalrank/internal/tsdata"
)

// This file defines the five workloads: how each stack is set up, what
// its two load goroutines do, and what it must keep doing to deserve
// its name.

var workloads = []*workload{
	{
		name:         "scan-exact",
		setup:        setupServing,
		clients:      scanClients,
		verifyStream: scanVerify,
		traceStream:  scanTrace,
		tracedOp:     tracedPlannerOp,
		rungs:        rungsScanExact,
		check:        checkScanExact,
	},
	{
		name:         "repeat-approx",
		setup:        setupServing,
		clients:      repeatClients,
		verifyStream: repeatVerify,
		traceStream:  repeatTrace,
		tracedOp:     tracedPlannerOp,
		rungs:        rungsRepeatApprox,
		check:        checkRepeatApprox,
	},
	{
		name:         "scan-disk",
		setup:        setupDisk,
		clients:      scanClients,
		verifyStream: scanVerify,
		traceStream:  scanTrace,
		tracedOp:     tracedPlannerOp,
		rungs:        rungsScanDisk,
		check:        checkScanDisk,
	},
	{
		name:         "ingest-mixed",
		setup:        setupMixed,
		clients:      mixedClients,
		verifyStream: mixedVerify,
		traceStream:  mixedTrace,
		// Long enough for both shards to reach their flush threshold, so
		// that compactions recur during the timed slices as they do in the
		// measured phase (every fourth operation is an append).
		traceWarmOps: func(e *env) int { return 10 * e.sc.flushSegments },
		tracedOp:     tracedClusterOp,
		rungs:        rungsIngestMixed,
		check:        checkIngestMixed,
	},
	{
		name:         "dist-rpc",
		setup:        setupDist,
		clients:      distClients,
		verifyStream: scanVerify,
		traceStream:  distTrace,
		mirror:       mirrorDist,
		tracedOp:     tracedRemoteOp,
		rungs:        rungsDistRPC,
		check:        checkDistRPC,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// repeatMaxEps is repeat-approx's tolerance: far above the ε the APPX2+
// index is built with, so the planner always routes to it.
const repeatMaxEps = 0.05

// genDataset generates the Temp dataset of m series (from dataSeed: the
// data is the same on every run).
func genDataset(e *env, m int) (*tsdata.Dataset, error) {
	return gen.Temp(gen.TempConfig{M: m, Navg: e.sc.navg, Seed: subSeed(dataSeed, "dataset")})
}

// newInstance wraps a generated dataset with the harness state every
// workload needs: the model, the append frontier and the query domain.
func newInstance(ds *tsdata.Dataset) *instance {
	inst := &instance{
		model:   newModel(ds),
		fr:      newFrontier(ds),
		dom:     domain{start: ds.Start(), span: ds.Span()},
		timings: make(map[string]float64),
		close:   func() error { return nil },
		drain:   func(context.Context) error { return nil },
	}
	return inst
}

// servingOptions are the two indexes of the serving stack S: EXACT3, the
// paper's best exact method, and APPX2+, its best-quality approximate
// one and the only serving candidate with a bptree on the query path.
func servingOptions(e *env) []temporalrank.Options {
	return []temporalrank.Options{
		{Method: temporalrank.MethodExact3},
		{Method: temporalrank.MethodAppx2P, TargetR: e.sc.targetR, KMax: e.sc.kmax},
	}
}

// timedBuild builds one index and records its build time and size.
func timedBuild(inst *instance, db *temporalrank.DB, opts temporalrank.Options, key string) (*temporalrank.Index, error) {
	t0 := time.Now()
	ix, err := db.BuildIndex(opts)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", opts.Method, err)
	}
	inst.timings["build."+key+"_s"] = time.Since(t0).Seconds()
	inst.indexBytes += ix.Stats().Bytes
	return ix, nil
}

// plannerX is the traced-phase state of the single-planner workloads.
type plannerX struct {
	p  *temporalrank.Planner
	ds *tsdata.Dataset
	e3 *temporalrank.Index
	a2 *temporalrank.Index // nil on scan-disk
	// twin is an EXACT3 built over the same data on a counting device;
	// the traced phase builds it on first use.
	twin *twinIndex
	// diskPath is where scan-disk's twin puts its file.
	diskPath string
}

// setupServing builds S on D-large: Planner{EXACT3, APPX2+} with a
// result cache and a memtable, everything in memory.
func setupServing(e *env, rep int) (*instance, error) {
	ds, err := genDataset(e, e.sc.mLarge)
	if err != nil {
		return nil, err
	}
	inst := newInstance(ds)
	db := temporalrank.NewDBFromDataset(ds)
	opts := servingOptions(e)
	e3, err := timedBuild(inst, db, opts[0], "exact3")
	if err != nil {
		return nil, err
	}
	a2, err := timedBuild(inst, db, opts[1], "appx2p")
	if err != nil {
		return nil, err
	}
	p, err := temporalrank.NewPlanner(db, e3, a2)
	if err != nil {
		return nil, err
	}
	p.EnableResultCache(e.sc.cacheEntries)
	if err := p.EnableMemtable(temporalrank.MemtableOptions{}); err != nil {
		return nil, err
	}
	inst.sys, inst.scores = p, p
	inst.planners = []*temporalrank.Planner{p}
	inst.cacheStats = p.CacheStats
	inst.segments = ds.NumSegments()
	inst.resetCache = func() { p.EnableResultCache(e.sc.cacheEntries) }
	inst.templates = makeTemplates(newRand(dataSeed, "templates"), e.sc.templates, inst.dom, tolerantKind)
	inst.x = &plannerX{p: p, ds: ds, e3: e3, a2: a2}
	return inst, nil
}

// tolerantKind is repeat-approx's template mix: four sums to one avg,
// all tolerant, so the planner always routes to APPX2+ (an instant query
// would go to EXACT3 whatever its tolerance).
func tolerantKind(i int) (temporalrank.Agg, float64) {
	if i%5 == 4 {
		return temporalrank.AggAvg, repeatMaxEps
	}
	return temporalrank.AggSum, repeatMaxEps
}

// mixedKind is ingest-mixed's template mix: even ranks tolerate error
// and go to APPX2+, odd ranks demand exactness, so both indexes serve
// under the memtable; aggregates cycle through the 70/20/10 mix.
func mixedKind(i int) (temporalrank.Agg, float64) {
	agg := temporalrank.AggSum
	switch (i / 2) % 10 {
	case 7, 8:
		agg = temporalrank.AggAvg
	case 9:
		agg = temporalrank.AggInstant
	}
	return agg, repeatMaxEps * float64((i+1)%2)
}

// historical is the part of the domain every series already covers:
// from the start to the earliest series end. No append can land inside
// it, so a window there never overlaps a memtable run and a cached
// answer for it is never invalidated — the half of ingest-mixed's reads
// that scoped invalidation is meant to keep hot.
func historical(ds *tsdata.Dataset) domain {
	end := ds.End()
	for _, s := range ds.AllSeries() {
		end = math.Min(end, s.End())
	}
	return domain{start: ds.Start(), span: end - ds.Start()}
}

// setupDisk builds Planner{EXACT3} on D-large with the index in a file
// behind a buffer pool of about a tenth of its pages — the paper's
// setting of an index larger than the program's cache.
func setupDisk(e *env, rep int) (*instance, error) {
	ds, err := genDataset(e, e.sc.mLarge)
	if err != nil {
		return nil, err
	}
	inst := newInstance(ds)
	db := temporalrank.NewDBFromDataset(ds)
	dir := filepath.Join(e.workdir, fmt.Sprintf("disk-%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	inst.close = func() error { return os.RemoveAll(dir) }
	e3, err := timedBuild(inst, db, temporalrank.Options{
		Method:      temporalrank.MethodExact3,
		OnDiskPath:  filepath.Join(dir, "exact3.idx"),
		CacheBlocks: e.sc.poolBlocks,
	}, "exact3")
	if err != nil {
		return nil, err
	}
	p, err := temporalrank.NewPlanner(db, e3)
	if err != nil {
		return nil, err
	}
	inst.sys, inst.scores = p, p
	inst.planners = []*temporalrank.Planner{p}
	inst.segments = ds.NumSegments()
	inst.x = &plannerX{p: p, ds: ds, e3: e3, diskPath: filepath.Join(dir, "twin.idx")}
	return inst, nil
}

// scanClients are two closed-loop clients drawing never-repeating exact
// queries. scan-disk uses the same labels as scan-exact, hence the same
// query stream for a seed.
func scanClients(e *env, inst *instance) []clientSpec {
	specs := make([]clientSpec, 2)
	for c := range specs {
		specs[c].st = &scanStream{rng: newRand(e.seed, fmt.Sprintf("scan-client-%d", c)), dom: inst.dom}
	}
	return specs
}

func scanVerify(e *env, inst *instance, label string) stream {
	return &scanStream{rng: newRand(e.seed, "scan-"+label), dom: inst.dom}
}

func scanTrace(e *env, inst *instance) stream { return scanVerify(e, inst, "trace") }

func repeatClients(e *env, inst *instance) []clientSpec {
	specs := make([]clientSpec, 2)
	for c := range specs {
		specs[c].st = newTemplateStream(newRand(e.seed, fmt.Sprintf("repeat-client-%d", c)), inst.templates)
	}
	return specs
}

// repeatVerify samples templates uniformly rather than by popularity:
// under Zipf a sixth of a sample would be one template, and the
// sample's precision would mostly be that template's. The sample is
// part of the data (drawn from dataSeed): precision_at_k is a property
// of the data, the templates and the index, and moves only when the
// index's answers do.
func repeatVerify(e *env, inst *instance, label string) stream {
	return &uniformTemplates{rng: newRand(dataSeed, "repeat-"+label), templates: inst.templates}
}

func repeatTrace(e *env, inst *instance) stream {
	return newTemplateStream(newRand(e.seed, "repeat-trace"), inst.templates)
}

// clusterX is ingest-mixed's traced-phase state.
type clusterX struct {
	c *temporalrank.Cluster
}

// setupMixed builds the 2-shard local cluster of S on D-small that
// rankserver serves, with a small flush threshold so that compactions
// (full shard rebuilds) recur inside the measured window.
func setupMixed(e *env, rep int) (*instance, error) {
	ds, err := genDataset(e, e.sc.mSmall)
	if err != nil {
		return nil, err
	}
	inst := newInstance(ds)
	c, err := temporalrank.NewClusterFromDB(temporalrank.NewDBFromDataset(ds), temporalrank.ClusterOptions{
		Shards:      2,
		Indexes:     servingOptions(e),
		ResultCache: e.sc.cacheEntries,
		Memtable:    &temporalrank.MemtableOptions{FlushSegments: e.sc.flushSegments},
	})
	if err != nil {
		return nil, err
	}
	inst.sys, inst.app, inst.scores = c, c, c
	inst.planners = c.Planners()
	inst.cacheStats = c.CacheStats
	inst.indexBytes, inst.segments = clusterIndexBytes(c)
	inst.drain = func(ctx context.Context) error { return drainPlanners(ctx, c.Planners()) }
	inst.templates = makeTemplates(newRand(dataSeed, "templates"), e.sc.mixedTemplates, historical(ds), mixedKind)
	inst.x = &clusterX{c: c}
	return inst, nil
}

func clusterIndexBytes(c *temporalrank.Cluster) (bytes int64, segments int) {
	st := c.Stats()
	for _, sh := range st.PerShard {
		for _, ix := range sh.Indexes {
			bytes += ix.Bytes
		}
	}
	return bytes, st.Segments
}

// drainPlanners compacts every planner's memtable into its base. A
// background compaction may be in flight; Compact serializes behind it.
func drainPlanners(ctx context.Context, ps []*temporalrank.Planner) error {
	for _, p := range ps {
		if p == nil {
			continue
		}
		if err := p.Compact(ctx); err != nil {
			return err
		}
	}
	return nil
}

// mixedClients are one closed-loop reader and one open-loop writer.
func mixedClients(e *env, inst *instance) []clientSpec {
	return []clientSpec{
		{st: mixedReader(e, inst, "mixed-reader")},
		{st: newAppendStream(newRand(e.seed, "mixed-writer"), inst.fr, 0, 1), rate: e.sc.appendRate},
	}
}

func mixedReader(e *env, inst *instance, label string) *mixedReadStream {
	rng := newRand(e.seed, label)
	return &mixedReadStream{rng: rng, tmpl: newTemplateStream(rng, inst.templates), fr: inst.fr, dom: inst.dom}
}

func mixedVerify(e *env, inst *instance, label string) stream {
	return mixedReader(e, inst, "mixed-"+label)
}

// interleaved draws one operation from b after every n from a: the
// single-client stand-in for a reader beside a writer.
type interleaved struct {
	a, b stream
	n, i int
}

func (s *interleaved) next() op {
	s.i++
	if s.i%(s.n+1) == 0 {
		return s.b.next()
	}
	return s.a.next()
}

// mixedTrace is three reads per append: the reader completes about
// 3,000 queries a second beside the writer's 1,000 appends, and a replay
// that appended faster than the measured phase does would outrun the
// compactions and measure an ever fuller memtable.
func mixedTrace(e *env, inst *instance) stream {
	return &interleaved{
		a: mixedReader(e, inst, "mixed-trace-reader"),
		b: newAppendStream(newRand(e.seed, "mixed-trace-writer"), inst.fr, 0, 1),
		n: 3,
	}
}

// distX is dist-rpc's traced-phase state.
type distX struct {
	rc *temporalrank.RemoteCluster
	// snapDir holds the cluster checkpoint the replicas booted from.
	snapDir string
	// local is a twin restored from that checkpoint (with a memtable,
	// like the nodes) that the traced phase compares the remote path
	// against; the traced phase restores it on first use.
	local *temporalrank.Cluster
}

// distMemtable is the replicas' memtable setting: a flush threshold no
// run reaches, so no shard rebuild starts on some runs and not others.
// Compaction beside reads is ingest-mixed's subject.
var distMemtable = temporalrank.MemtableOptions{FlushSegments: 1 << 20}

// setupDist builds D-small as a 2-shard cluster, checkpoints it, boots
// 2 groups x 2 replicas of in-process shard nodes from copies of the
// snapshot files (as replicas on separate machines would), and connects
// a RemoteCluster with default options over loopback TCP.
func setupDist(e *env, rep int) (inst *instance, err error) {
	ds, err := genDataset(e, e.sc.mSmall)
	if err != nil {
		return nil, err
	}
	inst = newInstance(ds)
	source, err := temporalrank.NewClusterFromDB(temporalrank.NewDBFromDataset(ds), temporalrank.ClusterOptions{
		Shards:  2,
		Indexes: servingOptions(e),
	})
	if err != nil {
		return nil, err
	}
	inst.indexBytes, inst.segments = clusterIndexBytes(source)
	root := filepath.Join(e.workdir, fmt.Sprintf("dist-%d", rep))
	snapDir := filepath.Join(root, "snapshot")
	var (
		nodes  []*temporalrank.ShardNode
		serves sync.WaitGroup
		rc     *temporalrank.RemoteCluster
	)
	inst.close = func() error {
		var first error
		if rc != nil {
			first = rc.Close()
		}
		for _, n := range nodes {
			if err := n.Close(); err != nil && first == nil {
				first = err
			}
		}
		serves.Wait()
		if err := os.RemoveAll(root); err != nil && first == nil {
			first = err
		}
		return first
	}
	defer func() {
		if err != nil {
			inst.close()
		}
	}()
	if err := source.Checkpoint(snapDir); err != nil {
		return nil, err
	}
	groups := make([][]string, source.NumShards())
	for g := range groups {
		name := fmt.Sprintf("shard-%04d.trsnap", g)
		blob, err := os.ReadFile(filepath.Join(snapDir, name))
		if err != nil {
			return nil, err
		}
		for r := 0; r < 2; r++ {
			dir := filepath.Join(root, fmt.Sprintf("g%dr%d", g, r))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
				return nil, err
			}
			node, err := temporalrank.NewShardNodeWithOptions(dir, temporalrank.ShardNodeOptions{Memtable: &distMemtable})
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, node)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			serves.Add(1)
			go func() {
				defer serves.Done()
				_ = node.Serve(ln) // returns once the node is closed
			}()
			groups[g] = append(groups[g], ln.Addr().String())
		}
	}
	if rc, err = temporalrank.NewRemoteCluster(groups, temporalrank.RemoteClusterOptions{}); err != nil {
		return nil, err
	}
	inst.sys, inst.app, inst.scores = rc, rc, rc
	// RemoteCluster.Checkpoint makes every replica compact its memtable
	// and persist: the drain the post-run readability check needs.
	inst.drain = rc.Checkpoint
	inst.x = &distX{rc: rc, snapDir: snapDir}
	return inst, nil
}

// distClients are two closed-loop clients, each 90 % reads / 10 %
// appends; client c appends only to series with id % 2 == c, so the two
// never race on one series' frontier.
func distClients(e *env, inst *instance) []clientSpec {
	specs := make([]clientSpec, 2)
	for c := range specs {
		specs[c].st = distStream(e, inst, fmt.Sprintf("dist-client-%d", c), c, 2)
	}
	return specs
}

func distStream(e *env, inst *instance, label string, owner, owners int) *rpcStream {
	rng := newRand(e.seed, label)
	return &rpcStream{
		rng:   rng,
		reads: &scanStream{rng: rng, dom: inst.dom},
		app:   newAppendStream(rng, inst.fr, owner, owners),
	}
}

func distTrace(e *env, inst *instance) stream { return distStream(e, inst, "dist-trace", 0, 1) }

// The self-assertions below fail a full-scale run when a workload has
// stopped doing what its name says; a benchmark that silently measures
// something else is worse than one that fails.

func methodCounts(w *window) (exact3, appx2p, other int64) {
	for _, c := range w.clients {
		exact3 += c.nExact3
		appx2p += c.nAppx2P
		other += c.nOther
	}
	return
}

func checkScanExact(e *env, res *result, w *window) []string {
	var v []string
	if w.cache1.Hits != w.cache0.Hits {
		v = append(v, fmt.Sprintf("scan-exact: %d result-cache hits, want 0", w.cache1.Hits-w.cache0.Hits))
	}
	if _, a, o := methodCounts(w); a+o != 0 {
		v = append(v, fmt.Sprintf("scan-exact: %d answers not from EXACT3", a+o))
	}
	return v
}

func checkRepeatApprox(e *env, res *result, w *window) []string {
	var v []string
	if hr := res.Metrics["qcache.hit_ratio"].Value; hr < 0.70 || hr > 0.85 {
		v = append(v, fmt.Sprintf("repeat-approx: result-cache hit ratio %.3f outside [0.70, 0.85]", hr))
	}
	if x, _, o := methodCounts(w); x+o != 0 {
		v = append(v, fmt.Sprintf("repeat-approx: %d answers not from APPX2+", x+o))
	}
	return v
}

func checkScanDisk(e *env, res *result, w *window) []string {
	if !e.layers {
		return nil // the pool's hit ratio is only observable on the twin
	}
	if hr := res.Metrics["blockio.pool_hit_ratio"].Value; hr <= 0.2 || hr >= 0.9 {
		return []string{fmt.Sprintf("scan-disk: buffer-pool hit ratio %.3f outside (0.2, 0.9)", hr)}
	}
	return nil
}

func checkIngestMixed(e *env, res *result, w *window) []string {
	var v []string
	// A compaction needs flushSegments appends on one shard, so a window
	// of s seconds can complete at most s*rate/flushSegments of them (9.8
	// in 10 s); four in five of those must actually finish.
	most := e.seconds * float64(e.sc.appendRate) / float64(e.sc.flushSegments)
	if c, want := w.gens1-w.gens0, uint64(math.Ceil(0.8*most)); c < want {
		v = append(v, fmt.Sprintf("ingest-mixed: %d compactions in the window, want >= %d", c, want))
	}
	offered := float64(e.sc.appendRate) * e.seconds
	attempt, fail := w.appends()
	if got := float64(attempt - fail); got < 0.99*offered {
		v = append(v, fmt.Sprintf("ingest-mixed: %.0f appends acknowledged of %.0f offered", got, offered))
	}
	if a := float64(res.Sizes["appended"]); a >= 0.15*float64(res.Sizes["segments"]) {
		v = append(v, fmt.Sprintf("ingest-mixed: appended %.0f segments, >= 15 %% of the base", a))
	}
	// The bounded metrics that cover the memtable merge, scatter and
	// compaction are query_p95_us and query_ops_s; the p95 must therefore
	// lie among the latest-window queries.
	if p95, l50 := res.Metrics["query_p95_us"].Value, res.Metrics["query.latest_p50_us"].Value; p95 < l50 {
		v = append(v, fmt.Sprintf("ingest-mixed: query_p95_us %.0f is below the latest-window median %.0f", p95, l50))
	}
	return v
}

func checkDistRPC(e *env, res *result, w *window) []string {
	if !e.layers {
		return nil // the overhead is measured in the traced phase
	}
	// Compared with the traced phase's own remote reads: one client, the
	// same seconds, so a slow spell on the machine moves both alike.
	over, run := res.Metrics["remotecluster.overhead_ns"].Value, res.traceRootNs["remotecluster.run"]
	if over <= run/2 {
		return []string{fmt.Sprintf("dist-rpc: RPC overhead %.0f ns is not above half of a remote read's %.0f ns", over, run)}
	}
	return nil
}
