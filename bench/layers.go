package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"temporalrank"
	"temporalrank/internal/blockio"
	"temporalrank/internal/bptree"
	"temporalrank/internal/breakpoint"
	"temporalrank/internal/core"
	"temporalrank/internal/itree"
	"temporalrank/internal/memtable"
	"temporalrank/internal/qcache"
	"temporalrank/internal/remote"
	"temporalrank/internal/scatter"
	"temporalrank/internal/snapshot"
	"temporalrank/internal/topk"
	"temporalrank/internal/tsdata"
)

// This file holds the rungs: microbenchmarks that call one module's
// public API directly, on inputs shaped like the workload's (same N,
// page size and k). A rung runs only on the workloads whose row in
// README.md lists it; it is measured by one goroutine with nothing else
// running.

// timeEach times n calls of f one by one and returns the samples (ns).
// For calls of a microsecond and more, where a clock read per call is
// noise.
func timeEach(n int, f func(i int)) []int64 {
	out := make([]int64, n)
	for i := range out {
		t0 := time.Now()
		f(i)
		out[i] = int64(time.Since(t0))
	}
	return out
}

// batchNs times f in rounds of n calls and returns the median round's
// nanoseconds per call. For calls far cheaper than a clock read.
func batchNs(rounds, n int, f func(i int)) float64 {
	per := make([]float64, rounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(r*n + i)
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

const batchRounds = 5

// sumQueries draws n sum windows shaped like the scan workloads'.
func sumQueries(rng *rand.Rand, dom domain, n int) []temporalrank.Query {
	out := make([]temporalrank.Query, n)
	for i := range out {
		t1, t2 := dom.window(rng, 0.01, 0.40)
		out[i] = temporalrank.SumQuery(queryK, t1, t2)
	}
	return out
}

// rungIndexRun times direct Index.Run calls: the index's own cost with
// no planner or cache above it.
func rungIndexRun(e *env, res *result, name string, ix *temporalrank.Index, qs []temporalrank.Query) error {
	var err error
	ns := timeEach(len(qs), func(i int) {
		if _, rerr := ix.Run(e.ctx, qs[i]); rerr != nil {
			err = rerr
		}
	})
	res.setN(name, medianInt64(ns), "ns", len(ns))
	return err
}

func rungsScanExact(e *env, inst *instance, res *result) error {
	x := inst.x.(*plannerX)
	rng := newRand(e.seed, "rung-scan-exact")
	qs := sumQueries(rng, inst.dom, e.sc.rungOps)
	if err := rungIndexRun(e, res, "exact3.topk_ns", x.e3, qs); err != nil {
		return err
	}
	instants := make([]temporalrank.Query, e.sc.rungOps)
	for i := range instants {
		instants[i] = temporalrank.InstantQuery(queryK, inst.dom.start+rng.Float64()*inst.dom.span)
	}
	if err := rungIndexRun(e, res, "exact3.instant_ns", x.e3, instants); err != nil {
		return err
	}
	if err := rungItree(e, x.ds, rng, res); err != nil {
		return err
	}
	rungCollect(x.ds.NumSeries(), rng, res)
	return nil
}

// rungItree builds an interval tree shaped like EXACT3's — every segment
// plus two sentinels per object, 28-byte payloads — and times stabbing
// queries, each of which reports one interval per object.
func rungItree(e *env, ds *tsdata.Dataset, rng *rand.Rand, res *result) error {
	const payload = 28
	pad := ds.Span() * 0.01
	lo, hi := ds.Start()-pad, ds.End()+pad
	ivs := make([]itree.Interval, 0, ds.NumSegments()+2*ds.NumSeries())
	for _, s := range ds.AllSeries() {
		p := make([]byte, payload)
		binary.LittleEndian.PutUint32(p, uint32(s.ID))
		if s.Start() > lo {
			ivs = append(ivs, itree.Interval{Lo: lo, Hi: s.Start(), Payload: p})
		}
		for j := 0; j < s.NumSegments(); j++ {
			seg := s.Segment(j)
			ivs = append(ivs, itree.Interval{Lo: seg.T1, Hi: seg.T2, Payload: p})
		}
		ivs = append(ivs, itree.Interval{Lo: s.End(), Hi: hi, Payload: p})
	}
	dev := blockio.NewMemDevice(blockio.DefaultBlockSize)
	tree, err := itree.Build(dev, payload, ivs)
	if err != nil {
		return err
	}
	dev.ResetStats()
	visited := 0
	ns := timeEach(e.sc.rungOps, func(int) {
		t := ds.Start() + rng.Float64()*ds.Span()
		if serr := tree.Stab(t, func(itree.Interval) bool { visited++; return true }); serr != nil {
			err = serr
		}
	})
	if err != nil {
		return err
	}
	if visited != e.sc.rungOps*ds.NumSeries() {
		return fmt.Errorf("itree rung: %d intervals reported, want one per object per stab (%d)", visited, e.sc.rungOps*ds.NumSeries())
	}
	res.setN("itree.stab_ns", medianInt64(ns), "ns", len(ns))
	res.setN("itree.stab_pages", float64(dev.Stats().Reads)/float64(len(ns)), "count", len(ns))
	return dev.Close()
}

// rungCollect times the final pass of every exact query: m scores
// through a size-k collector.
func rungCollect(m int, rng *rand.Rand, res *result) {
	scores := make([]float64, m)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	perQuery := batchNs(batchRounds, 200, func(int) {
		c := topk.GetCollector(queryK)
		for i, s := range scores {
			c.Add(tsdata.SeriesID(i), s)
		}
		c.Release()
	})
	res.setN("topk.collect_ns_per_item", perQuery/float64(m), "ns", batchRounds*200*m)
}

func rungsRepeatApprox(e *env, inst *instance, res *result) error {
	x := inst.x.(*plannerX)
	rng := newRand(e.seed, "rung-repeat-approx")
	if err := rungIndexRun(e, res, "approx.topk_ns", x.a2, sumQueries(rng, inst.dom, e.sc.rungOps)); err != nil {
		return err
	}
	if err := rungQcache(e, res); err != nil {
		return err
	}
	if err := rungBptree(e, x.ds, rng, res); err != nil {
		return err
	}
	t0 := time.Now()
	bs, err := breakpoint.Build2WithTargetR(x.ds, e.sc.targetR, true)
	if err != nil {
		return err
	}
	res.set("breakpoint.build_s", time.Since(t0).Seconds(), "s")
	res.set("breakpoint.r", float64(bs.R()), "count")
	return nil
}

// rungQcache times the result cache alone: a scoped lookup of a resident
// key, and a miss that runs a trivial function and stores its result.
func rungQcache(e *env, res *result) error {
	type key [41]byte // the size of the planner's query key
	c := qcache.New[key, temporalrank.Answer](e.sc.cacheEntries)
	js := []*qcache.Journal{qcache.NewJournal(0)}
	scope := qcache.Scope{Series: -1, T1: 10, T2: 20}
	fn := func() (temporalrank.Answer, error) { return temporalrank.Answer{}, nil }
	var k key
	var err error
	note := func(_ temporalrank.Answer, _ bool, cerr error) {
		if cerr != nil {
			err = cerr
		}
	}
	note(c.DoScoped(e.ctx, k, js, scope, fn))
	hit := batchNs(batchRounds, 20000, func(int) { note(c.DoScoped(e.ctx, k, js, scope, fn)) })
	miss := batchNs(batchRounds, 20000, func(i int) {
		binary.LittleEndian.PutUint64(k[1:], uint64(i)+1)
		note(c.Do(e.ctx, k, 0, fn))
	})
	res.setN("qcache.do_scoped_hit_ns", hit, "ns", batchRounds*20000)
	res.setN("qcache.do_miss_ns", miss, "ns", batchRounds*20000)
	return err
}

// rungBptree times ceiling searches on a tree of N keys (no served path
// is that large today; it is the trend line) and on a tree of navg keys,
// the shape of each tree in APPX2+'s rescoring forest.
func rungBptree(e *env, ds *tsdata.Dataset, rng *rand.Rand, res *result) error {
	for _, c := range []struct {
		name string
		n    int
	}{{"bptree.search_ceil_ns", ds.NumSegments()}, {"bptree.search_ceil_small_ns", int(ds.AvgSegments())}} {
		entries := make([]bptree.Entry, c.n)
		val := make([]byte, 24)
		for i := range entries {
			entries[i] = bptree.Entry{Key: float64(i), Value: val}
		}
		dev := blockio.NewMemDevice(blockio.DefaultBlockSize)
		tree, err := bptree.BulkLoad(dev, len(val), entries)
		if err != nil {
			return err
		}
		dev.ResetStats()
		const n = 20000
		perOp := batchNs(batchRounds, n, func(int) {
			cur, serr := tree.SearchCeil(rng.Float64() * float64(c.n-1))
			if serr != nil {
				err = serr
				return
			}
			cur.Close()
		})
		if err != nil {
			return err
		}
		res.setN(c.name, perOp, "ns", batchRounds*n)
		if c.name == "bptree.search_ceil_ns" {
			res.setN("bptree.search_pages", float64(dev.Stats().Reads)/float64(batchRounds*n), "count", batchRounds*n)
		}
		if err := dev.Close(); err != nil {
			return err
		}
	}
	return nil
}

func rungsScanDisk(e *env, inst *instance, res *result) error {
	x := inst.x.(*plannerX)
	rng := newRand(e.seed, "rung-scan-disk")
	if err := rungIndexRun(e, res, "exact3.topk_ns", x.e3, sumQueries(rng, inst.dom, e.sc.rungOps)); err != nil {
		return err
	}
	return rungPool(e, res)
}

// rungPool times BufferPool.View over a FileDevice on a resident page
// and on an evicted one. Cycling through four times the pool's capacity
// makes every access a miss under CLOCK. The file is freshly written, so
// misses are served by the OS page cache, not a disk.
func rungPool(e *env, res *result) error {
	path := filepath.Join(e.workdir, "pool-rung.dev")
	fd, err := blockio.OpenFileDevice(path, blockio.DefaultBlockSize)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	capacity := e.sc.poolBlocks
	page := make([]byte, blockio.DefaultBlockSize)
	ids := make([]blockio.PageID, 4*capacity)
	for i := range ids {
		if ids[i], err = fd.Alloc(); err != nil {
			return err
		}
		if err := fd.Write(ids[i], page); err != nil {
			return err
		}
	}
	pool := blockio.NewBufferPool(fd, capacity)
	view := func(id blockio.PageID) {
		v, verr := pool.View(id)
		if verr != nil {
			err = verr
			return
		}
		v.Release()
	}
	view(ids[0])
	hit := batchNs(batchRounds, 20000, func(int) { view(ids[0]) })
	miss := batchNs(batchRounds, len(ids), func(i int) { view(ids[i%len(ids)]) })
	if err != nil {
		return err
	}
	res.setN("blockio.view_pool_hit_ns", hit, "ns", batchRounds*20000)
	res.setN("blockio.view_pool_miss_ns", miss, "ns", batchRounds*len(ids))
	return pool.Close()
}

// rungShardStack builds S's two indexes over one shard's data — what
// every compaction of that shard rebuilds — and reports build.*.
func rungShardStack(e *env, db *temporalrank.DB, res *result) (*temporalrank.Planner, error) {
	var ixs []*temporalrank.Index
	for i, key := range []string{"exact3", "appx2p"} {
		t0 := time.Now()
		ix, err := db.BuildIndex(servingOptions(e)[i])
		if err != nil {
			return nil, err
		}
		res.set("build."+key+"_s", time.Since(t0).Seconds(), "s")
		res.set("build."+key+"_pages", float64(ix.Stats().Pages), "count")
		ixs = append(ixs, ix)
	}
	return temporalrank.NewPlanner(db, ixs...)
}

func rungsIngestMixed(e *env, inst *instance, res *result) error {
	x := inst.x.(*clusterX)
	rng := newRand(e.seed, "rung-ingest-mixed")
	// One shard's data, copied so the rung's appends stay out of the
	// serving stack.
	shard := x.c.Planners()[0].DB().Snapshot()
	if err := rungMemtable(e, shard, rng, res); err != nil {
		return err
	}
	p, err := rungShardStack(e, temporalrank.NewDBFromDataset(shard), res)
	if err != nil {
		return err
	}
	if err := rungMerge(e, p, shard, rng, res); err != nil {
		return err
	}
	rungScatter(e, res)
	rungTopkMerge(rng, res)
	return nil
}

// rungMemtable times the delta layer alone at the flush threshold's
// worth of active segments: inserts, one series' delta, and the
// all-series range collection every merged query starts with.
func rungMemtable(e *env, ds *tsdata.Dataset, rng *rand.Rand, res *result) error {
	n := e.sc.flushSegments
	base := newFrontier(ds)
	frontierOf := func(id int) (float64, float64, bool) { return base.end[id], base.val[id], true }
	var (
		table *memtable.Table
		err   error
	)
	var lastEnd float64
	perRound := make([]float64, batchRounds)
	for r := range perRound {
		table = memtable.NewTable(frontierOf, 0)
		st := newAppendStream(rng, newFrontier(ds), 0, 1)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = st.next()
			lastEnd = math.Max(lastEnd, ops[i].t)
		}
		t0 := time.Now()
		for _, o := range ops {
			if _, aerr := table.Append(o.id, o.t, o.v); aerr != nil {
				err = aerr
			}
		}
		perRound[r] = float64(time.Since(t0)) / float64(n)
	}
	if err != nil {
		return err
	}
	res.setN("memtable.append_ns", median(perRound), "ns", batchRounds*n)
	t1 := ds.End() - 0.1*ds.Span()
	m := ds.NumSeries()
	var sink float64
	res.setN("memtable.delta_ns", batchNs(batchRounds, 20000, func(i int) { sink += table.Delta(i%m, t1, lastEnd) }), "ns", batchRounds*20000)
	res.setN("memtable.collect_range_ns", batchNs(batchRounds, 200, func(int) {
		table.CollectRange(t1, lastEnd, func(_ int, d float64) { sink += d })
	}), "ns", batchRounds*200)
	_ = sink
	return nil
}

// rungMerge fills a shard planner's memtable to the flush threshold and
// times the reader's queries against it, compacts (timed: one full shard
// rebuild), and times the same queries again. The difference is what the
// memtable merge costs a query.
func rungMerge(e *env, p *temporalrank.Planner, ds *tsdata.Dataset, rng *rand.Rand, res *result) error {
	if err := p.EnableMemtable(temporalrank.MemtableOptions{DisableAutoCompact: true}); err != nil {
		return err
	}
	fr := newFrontier(ds)
	st := newAppendStream(rng, fr, 0, 1)
	for i := 0; i < e.sc.flushSegments; i++ {
		o := st.next()
		if err := p.Append(o.id, o.t, o.v); err != nil {
			return err
		}
		fr.acknowledge(o.t)
	}
	dom := domain{start: ds.Start(), span: ds.Span()}
	reader := &mixedReadStream{rng: rng, fr: fr, dom: dom,
		tmpl: newTemplateStream(rng, makeTemplates(rng, 64, historical(ds), mixedKind))}
	qs := takeQueries(reader, e.sc.rungOps)
	run := func() (float64, error) {
		var err error
		ns := timeEach(len(qs), func(i int) {
			if _, rerr := p.Run(e.ctx, qs[i]); rerr != nil {
				err = rerr
			}
		})
		return medianInt64(ns), err
	}
	merged, err := run()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := p.Compact(e.ctx); err != nil {
		return err
	}
	res.set("memtable.compact_s", time.Since(t0).Seconds(), "s")
	compacted, err := run()
	if err != nil {
		return err
	}
	res.setN("memtable.merge_overhead_ns", merged-compacted, "ns", len(qs))
	return nil
}

// rungScatter times the fan-out primitive with nothing to do: two tasks
// on two workers, the shape of every cluster query here.
func rungScatter(e *env, res *result) {
	noop := func(context.Context, int) error { return nil }
	res.setN("scatter.run_ns", batchNs(batchRounds, 5000, func(int) { _ = scatter.Run(e.ctx, 2, 2, noop) }), "ns", batchRounds*5000)
}

// rungTopkMerge times the merge of two shards' top-k lists.
func rungTopkMerge(rng *rand.Rand, res *result) {
	lists := make([][]topk.Item, 2)
	for l := range lists {
		for i := 0; i < queryK; i++ {
			lists[l] = append(lists[l], topk.Item{ID: tsdata.SeriesID(2*i + l), Score: rng.Float64()})
		}
		topk.SortItems(lists[l])
	}
	var sink int
	res.setN("topk.merge_ns", batchNs(batchRounds, 20000, func(int) { sink += len(topk.Merge(queryK, lists...)) }), "ns", batchRounds*20000)
	_ = sink
}

func rungsDistRPC(e *env, inst *instance, res *result) error {
	x := inst.x.(*distX)
	rng := newRand(e.seed, "rung-dist-rpc")
	if err := rungRemote(e, res); err != nil {
		return err
	}
	if err := rungSnapshot(e, inst, x, res); err != nil {
		return err
	}
	if _, err := rungShardStack(e, temporalrank.NewDBFromDataset(x.local.Planners()[0].DB().Snapshot()), res); err != nil {
		return err
	}
	rungScatter(e, res)
	rungTopkMerge(rng, res)
	return nil
}

// echoReply is shaped like a shard's answer to a k=20 query.
type echoReply struct {
	Answer temporalrank.Answer
}

// rungRemote times the RPC layer alone over loopback: a call whose
// handler echoes a 64-byte body, and one that replies with a k=20
// answer, the size of every shard reply in dist-rpc.
func rungRemote(e *env, res *result) error {
	srv := remote.NewServer(0)
	srv.Handle("echo", func(_ context.Context, req []byte) (any, error) {
		var b []byte
		if err := remote.DecodeBody(req, &b); err != nil {
			return nil, err
		}
		return b, nil
	})
	ans := echoReply{Answer: temporalrank.Answer{Method: temporalrank.MethodExact3, Exact: true, Results: make([]temporalrank.Result, queryK)}}
	for i := range ans.Answer.Results {
		ans.Answer.Results[i] = temporalrank.Result{ID: i * 37, Score: 1e4 / float64(i+1)}
	}
	srv.Handle("answer", func(context.Context, []byte) (any, error) { return ans, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	client := remote.NewClient(remote.ClientOptions{})
	addr := ln.Addr().String()
	body := make([]byte, 64)
	call := func(method string, in, out any) func(int) {
		return func(int) {
			if cerr := client.Call(e.ctx, addr, method, in, out); cerr != nil {
				err = cerr
			}
		}
	}
	var echoed []byte
	var got echoReply
	n := 5 * e.sc.rungOps
	res.setN("remote.roundtrip_ns", medianInt64(timeEach(n, call("echo", body, &echoed))), "ns", n)
	res.setN("remote.roundtrip_answer_ns", medianInt64(timeEach(n, call("answer", temporalrank.SumQuery(queryK, 1, 2), &got))), "ns", n)
	return errors.Join(err, client.Close(), srv.Close(), <-done)
}

// rungSnapshot times the snapshot layer: the raw page codec on an
// EXACT3 device (into memory, so it is the codec and its checksums, not
// a disk), then whole-cluster checkpoints and restores of the local
// twin, whose restored answers are verified against the model.
func rungSnapshot(e *env, inst *instance, x *distX, res *result) error {
	m, err := core.Build(core.Exact3, inst.model.ds, core.Config{})
	if err != nil {
		return err
	}
	// An untimed write sizes the buffer, so the timed rounds measure the
	// codec and not the buffer's growth.
	var buf bytes.Buffer
	if err := snapshot.WriteDevicePages(&buf, m.Device()); err != nil {
		return err
	}
	mb := float64(buf.Len()) / (1 << 20)
	var wr, rd []float64
	for i := 0; i < 3; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := snapshot.WriteDevicePages(&buf, m.Device()); err != nil {
			return err
		}
		wr = append(wr, mb/time.Since(t0).Seconds())
		t0 = time.Now()
		if _, err := snapshot.ReadDevicePages(bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		rd = append(rd, mb/time.Since(t0).Seconds())
	}
	res.setN("snapshot.write_mb_s", median(wr), "MB/s", len(wr))
	res.setN("snapshot.read_mb_s", median(rd), "MB/s", len(rd))

	if x.local == nil {
		return fmt.Errorf("snapshot rung: the traced phase did not restore the local twin")
	}
	dir := filepath.Join(e.workdir, "checkpoint-rung")
	defer os.RemoveAll(dir)
	var cps, restores []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := x.local.Checkpoint(dir); err != nil {
			return err
		}
		cps = append(cps, time.Since(t0).Seconds())
	}
	var restored *temporalrank.Cluster
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if restored, err = temporalrank.OpenClusterSnapshot(dir, temporalrank.ClusterOptions{}); err != nil {
			return err
		}
		restores = append(restores, time.Since(t0).Seconds())
	}
	res.setN("snapshot.checkpoint_s", median(cps), "s", len(cps))
	res.setN("snapshot.restore_s", median(restores), "s", len(restores))
	// Size is taken on the snapshot the replicas booted from: the base
	// data, the same on every run, where the twin's also holds however
	// many appends the timed phase completed.
	files, err := filepath.Glob(filepath.Join(x.snapDir, temporalrank.SnapshotFilePattern))
	if err != nil {
		return err
	}
	var size int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return err
		}
		size += fi.Size()
	}
	res.set("snapshot.bytes_per_seg", float64(size)/float64(inst.segments), "B")
	v := verifySample(e.ctx, restored, inst.model, takeQueries(scanVerify(e, inst, "restore"), e.sc.verifyN/4), e.sc.targetR)
	if v.failed > 0 {
		return fmt.Errorf("restored cluster answers wrongly: %w", v.firstErr)
	}
	return nil
}
