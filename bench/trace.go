package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"temporalrank"
	"temporalrank/internal/blockio"
	"temporalrank/internal/core"
	"temporalrank/internal/exact"
)

// This file is the traced phase. One client replays a fixed number of
// the workload's operations with spans on. The program has no spans of
// its own yet, so every layer is measured from outside: the root span
// wraps the top-level call, and each child span is the same
// deterministic query issued again at a boundary the public API
// reaches (Planner.Plan, the planned Index.Run, each shard's
// Planner.Run, the local cluster under the remote one). A layer's self
// time is its span minus its children. That rests on reads being pure —
// the second execution does the same work as the first, if with warmer
// CPU caches — so appends get a root span only and are decomposed by the
// rungs instead.

// span is one timed call. Spans of one operation share OpSeq; Parent is
// 0 for the root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	OpSeq   int    `json:"op_seq"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// countRec is a count taken at a span boundary.
type countRec struct {
	OpSeq int    `json:"op_seq"`
	Name  string `json:"count"`
	N     int64  `json:"n"`
}

// tracer keeps spans and counts in memory until the run ends.
type tracer struct {
	origin time.Time
	ids    int
	spans  []span
	counts []countRec
	// workload labels the records when several workloads share a file.
	workload string
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newID reserves a span id, so that children can name a parent that
// runs after them.
func (t *tracer) newID() int {
	t.ids++
	return t.ids
}

// root times f as operation seq's root span, which has the reserved id.
func (t *tracer) root(id, seq int, name string, ts *traceStats, f func()) time.Duration {
	d := t.do(id, 0, seq, name, f)
	if rootFirst(seq) {
		ts.roots[name] = append(ts.roots[name], int64(d))
	}
	return d
}

// do times f as the span with the given id and returns its duration.
func (t *tracer) do(id, parent, seq int, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.spans = append(t.spans, span{ID: id, Parent: parent, OpSeq: seq, Name: t.workload + "/" + name,
		StartNs: int64(start.Sub(t.origin)), EndNs: int64(end.Sub(t.origin))})
	return end.Sub(start)
}

// child times f as a new span under parent.
func (t *tracer) child(parent, seq int, name string, f func()) time.Duration {
	return t.do(t.newID(), parent, seq, name, f)
}

func (t *tracer) count(seq int, name string, n int64) {
	t.counts = append(t.counts, countRec{OpSeq: seq, Name: t.workload + "/" + name, N: n})
}

// writeTo writes spans then counts as JSON lines.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	for i := range t.counts {
		if err := enc.Encode(&t.counts[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceStats gathers what the traced operations observe, by name:
// durations (ns) whose median becomes a metric, and exact counts.
type traceStats struct {
	ns     map[string][]int64
	ratios map[string][]float64
	// diffs holds root-minus-child differences, split by which of the two
	// ran first (see rootFirst).
	diffs map[string]*[2][]int64
	// roots holds, per root span name, the durations of the roots that
	// ran before their children: only those are comparable with the
	// untraced slice.
	roots  map[string][]int64
	counts map[string]int64
	acked  []appendRec
	err    error
}

func (s *traceStats) add(name string, d time.Duration) {
	s.ns[name] = append(s.ns[name], int64(d))
}

// rootFirst says whether operation seq runs its root span before its
// children. Whichever of two executions of one query runs second finds
// the pages the first touched in the CPU's caches and is faster for it,
// so a root-minus-child difference is too large when the root goes
// first and too small when it goes second. Alternating the order and
// averaging the two medians cancels that.
func rootFirst(seq int) bool { return seq%2 == 0 }

func (s *traceStats) addDiff(name string, seq int, d time.Duration) {
	if s.diffs[name] == nil {
		s.diffs[name] = new([2][]int64)
	}
	i := 0
	if !rootFirst(seq) {
		i = 1
	}
	s.diffs[name][i] = append(s.diffs[name][i], int64(d))
}

// inOrder runs root then children, or children then root.
func inOrder(seq int, root, children func()) {
	if rootFirst(seq) {
		root()
		children()
	} else {
		children()
		root()
	}
}

// ack logs an acknowledged append.
func (s *traceStats) ack(inst *instance, o op) {
	s.acked = append(s.acked, appendRec{o.id, o.t, o.v})
	inst.fr.acknowledge(o.t)
}

func (s *traceStats) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// tracedPhase replays the workload's trace stream three times over
// consecutive slices of it: once untimed to bring caches to a steady
// state, once timed without spans, once with spans. All three are
// single-client and of fixed length, so the state the traced slice
// starts from — and hence every count it takes — repeats for a seed.
func tracedPhase(e *env, wl *workload, inst *instance, res *result) error {
	st := wl.traceStream(e, inst)
	n := e.sc.traceOps
	// The measured phase left the result cache in a state that depends on
	// how far two timed clients got; the counts below must repeat.
	if inst.resetCache != nil {
		inst.resetCache()
	}
	ts := &traceStats{ns: make(map[string][]int64), ratios: make(map[string][]float64),
		diffs: make(map[string]*[2][]int64), roots: make(map[string][]int64), counts: make(map[string]int64)}
	plain := func(o op) {
		var err error
		if o.isAppend {
			if err = inst.app.Append(o.id, o.t, o.v); err == nil {
				ts.ack(inst, o)
				if wl.mirror != nil {
					err = wl.mirror(e, inst, o)
				}
			}
		} else {
			_, err = inst.sys.Run(e.ctx, o.q)
		}
		if err != nil {
			ts.fail(err)
		}
	}
	warm := n / 2
	if wl.traceWarmOps != nil {
		warm = wl.traceWarmOps(e)
	}
	for i := 0; i < warm; i++ {
		plain(st.next())
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		plain(st.next())
	}
	untraced := time.Since(t0)

	tr := e.spans
	tr.workload = wl.name
	for i := 0; i < n; i++ {
		wl.tracedOp(e, inst, tr, i, st.next(), ts)
	}
	var roots, nroots int64
	res.traceRootNs = make(map[string]float64)
	for name, ns := range ts.roots {
		res.traceRootNs[name] = medianInt64(ns)
		nroots += int64(len(ns))
		for _, d := range ns {
			roots += d
		}
	}
	if ts.err != nil {
		return fmt.Errorf("%s: traced phase: %w", wl.name, ts.err)
	}
	if err := inst.model.apply(ts.acked); err != nil {
		return err
	}
	inst.acked = append(inst.acked, ts.acked...)

	// Root spans running as fast with spans on as the same stream ran
	// without them is what makes the per-layer numbers comparable with
	// the end-to-end ones.
	res.setN("bench.trace_overhead_ratio", (float64(untraced)/float64(n))/(float64(roots)/float64(nroots)), "ratio", int(nroots))
	for name, ns := range ts.ns {
		res.setN(name, medianInt64(ns), "ns", len(ns))
	}
	for name, d := range ts.diffs {
		v, k := 0.0, 0
		for _, side := range d {
			if len(side) > 0 {
				v += medianInt64(side)
				k++
			}
		}
		res.setN(name, v/float64(k), "ns", len(d[0])+len(d[1]))
	}
	for name, vs := range ts.ratios {
		res.setN(name, median(vs), "ratio", len(vs))
	}
	res.TraceCounts = ts.counts
	return finishTrace(inst, res, ts)
}

// finishTrace derives the ratio metrics that need two counts.
func finishTrace(inst *instance, res *result, ts *traceStats) error {
	c := ts.counts
	per := func(name, num, den string) {
		if c[den] > 0 {
			res.setN(name, float64(c[num])/float64(c[den]), "count", int(c[den]))
		}
	}
	per("exact3.ios_per_query", "exact3.ios", "exact3.runs")
	per("approx.ios_per_query", "approx.ios", "approx.runs")
	per("blockio.pages_per_query", "blockio.pages", "twin.runs")
	per("blockio.device_reads_per_query", "blockio.device_reads", "twin.runs")
	if x, ok := inst.x.(*plannerX); ok && x.twin != nil {
		if v := x.twin.views(); v > 0 && x.twin.pool == nil {
			res.setN("blockio.view_mem_ns", x.twin.viewNs(), "ns", int(v))
		}
		if x.twin.pool != nil {
			hits, misses := x.twin.pool.HitMiss()
			res.setN("blockio.pool_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio", int(hits+misses))
			res.set("blockio.pin_degraded", float64(x.twin.pool.PinStats()), "count")
		}
		if err := x.twin.close(); err != nil {
			return err
		}
		x.twin = nil
	}
	return nil
}

// tracedPlannerOp decomposes one query on a single planner:
//
//	planner.run            root
//	├─ planner.plan        Planner.Plan(q)
//	├─ index.run           the planned index's Run(q) (in-memory stacks)
//	└─ twin.topk           the same window on the counting-device twin
//
// planner.overhead_ns is root minus index.run on operations the result
// cache did not answer; qcache.hit_ns is the root on those it did.
func tracedPlannerOp(e *env, inst *instance, tr *tracer, seq int, o op, ts *traceStats) {
	x := inst.x.(*plannerX)
	ctx := e.ctx
	// Behind a buffer pool a second execution finds its pages resident
	// and does different work than the first, so there the root's answer
	// stands in for the index's own run and no overhead is derived.
	pooled := x.diskPath != ""
	var (
		ans, direct   temporalrank.Answer
		err           error
		hit           bool
		rootD, runD   time.Duration
		planned       temporalrank.Querier
		before, after temporalrank.CacheStats
	)
	root := tr.newID()
	inOrder(seq, func() {
		if inst.cacheStats != nil {
			before, _ = inst.cacheStats()
		}
		rootD = tr.root(root, seq, "planner.run", ts, func() { ans, err = x.p.Run(ctx, o.q) })
		if inst.cacheStats != nil {
			after, _ = inst.cacheStats()
		}
	}, func() {
		ts.add("planner.plan_ns", tr.child(root, seq, "planner.plan", func() { planned = x.p.Plan(o.q) }))
		if !pooled && err == nil {
			runD = tr.child(root, seq, "index.run", func() { direct, err = planned.Run(ctx, o.q) })
		}
	})
	if err != nil {
		ts.fail(err)
		return
	}
	if pooled {
		direct = ans
	}
	if inst.cacheStats != nil {
		hit = after.Hits > before.Hits
		ts.counts["qcache.hits"] += int64(after.Hits - before.Hits)
		ts.counts["qcache.misses"] += int64(after.Misses - before.Misses)
	}
	switch {
	case hit:
		ts.add("qcache.hit_ns", rootD)
	case !pooled:
		ts.addDiff("planner.overhead_ns", seq, rootD-runD)
	}
	if ix, ok := planned.(*temporalrank.Index); ok && direct.IOs > 0 {
		ts.ratios["planner.est_over_actual_ios"] = append(ts.ratios["planner.est_over_actual_ios"],
			x.p.EstimateIOs(ix, o.q)/float64(direct.IOs))
	}
	// Behind the served pool an answer's IOs are physical reads, which
	// depend on what the measured phase left resident; the twin's fresh
	// pool below gives the counts that repeat.
	if !pooled {
		prefix := "approx"
		if direct.Method == temporalrank.MethodExact3 {
			prefix = "exact3"
		}
		ts.counts[prefix+".runs"]++
		ts.counts[prefix+".ios"] += int64(direct.IOs)
		tr.count(seq, prefix+".ios", int64(direct.IOs))
	}

	// The twin re-runs sum and avg windows (EXACT3 answers both with the
	// same two stabs) on a device that counts and times page accesses.
	if direct.Method != temporalrank.MethodExact3 || o.q.Agg == temporalrank.AggInstant {
		return
	}
	if x.twin == nil {
		if x.twin, err = newTwin(e, x); err != nil {
			ts.fail(err)
			return
		}
	}
	pages0, reads0 := x.twin.pages(), x.twin.dev.reads
	tr.child(root, seq, "twin.topk", func() { _, err = x.twin.m.TopK(o.q.K, o.q.T1, o.q.T2) })
	if err != nil {
		ts.fail(err)
		return
	}
	ts.counts["twin.runs"]++
	ts.counts["blockio.pages"] += int64(x.twin.pages() - pages0)
	tr.count(seq, "blockio.pages", int64(x.twin.pages()-pages0))
	if x.twin.pool != nil {
		ts.counts["blockio.device_reads"] += int64(x.twin.dev.reads - reads0)
	}
}

// tracedClusterOp decomposes one ingest-mixed operation:
//
//	cluster.run            root
//	└─ shard.run × shards  each shard planner's Run(q), one after another
//
// cluster.scatter_overhead_ns is root minus the slowest shard, on
// operations the cluster's result cache did not answer.
func tracedClusterOp(e *env, inst *instance, tr *tracer, seq int, o op, ts *traceStats) {
	x := inst.x.(*clusterX)
	root := tr.newID()
	var err error
	if o.isAppend {
		tr.root(root, seq, "cluster.append", ts, func() { err = x.c.Append(o.id, o.t, o.v) })
		if err != nil {
			ts.fail(err)
			return
		}
		ts.ack(inst, o)
		return
	}
	var (
		before, after  temporalrank.CacheStats
		rootD, slowest time.Duration
	)
	inOrder(seq, func() {
		before, _ = x.c.CacheStats()
		rootD = tr.root(root, seq, "cluster.run", ts, func() { _, err = x.c.Run(e.ctx, o.q) })
		after, _ = x.c.CacheStats()
	}, func() {
		for _, p := range x.c.Planners() {
			if p == nil || err != nil {
				continue
			}
			slowest = max(slowest, tr.child(root, seq, "shard.run", func() { _, err = p.Run(e.ctx, o.q) }))
		}
	})
	if err != nil {
		ts.fail(err)
		return
	}
	ts.counts["qcache.hits"] += int64(after.Hits - before.Hits)
	ts.counts["qcache.misses"] += int64(after.Misses - before.Misses)
	if after.Hits > before.Hits {
		ts.add("qcache.hit_ns", rootD)
	} else {
		ts.addDiff("cluster.scatter_overhead_ns", seq, rootD-slowest)
	}
}

// tracedRemoteOp decomposes one dist-rpc operation:
//
//	remotecluster.run      root          remotecluster.append   root
//	└─ localcluster.run    twin's Run    └─ localcluster.append twin's Append
//
// The twin is an in-process cluster restored from the snapshot the
// replicas booted from; it receives the same appends, so both sides hold
// the same data throughout the traced phase.
func tracedRemoteOp(e *env, inst *instance, tr *tracer, seq int, o op, ts *traceStats) {
	x := inst.x.(*distX)
	err := x.restoreLocal(inst)
	if err != nil {
		ts.fail(err)
		return
	}
	root := tr.newID()
	var rootD, localD time.Duration
	if o.isAppend {
		rootD = tr.root(root, seq, "remotecluster.append", ts, func() { err = x.rc.Append(o.id, o.t, o.v) })
		if err != nil {
			ts.fail(err)
			return
		}
		ts.ack(inst, o)
		localD = tr.child(root, seq, "localcluster.append", func() { err = x.local.Append(o.id, o.t, o.v) })
		if err != nil {
			ts.fail(err)
			return
		}
		ts.add("remotecluster.append_overhead_ns", rootD-localD)
		return
	}
	inOrder(seq, func() {
		rootD = tr.root(root, seq, "remotecluster.run", ts, func() { _, err = x.rc.Run(e.ctx, o.q) })
	}, func() {
		if err == nil {
			localD = tr.child(root, seq, "localcluster.run", func() { _, err = x.local.Run(e.ctx, o.q) })
		}
	})
	if err != nil {
		ts.fail(err)
		return
	}
	ts.addDiff("remotecluster.overhead_ns", seq, rootD-localD)
}

// restoreLocal restores the local twin on first use and brings it up to
// the replicas' data: every append acknowledged since they booted.
func (x *distX) restoreLocal(inst *instance) error {
	if x.local != nil {
		return nil
	}
	local, err := temporalrank.OpenClusterSnapshot(x.snapDir, temporalrank.ClusterOptions{Memtable: &distMemtable})
	if err != nil {
		return err
	}
	for _, r := range inst.acked {
		if err := local.Append(r.id, r.t, r.v); err != nil {
			return fmt.Errorf("local twin: %w", err)
		}
	}
	x.local = local
	return nil
}

// mirrorDist applies an append the remote cluster acknowledged to the
// local twin.
func mirrorDist(e *env, inst *instance, o op) error {
	x := inst.x.(*distX)
	if err := x.restoreLocal(inst); err != nil {
		return err
	}
	return x.local.Append(o.id, o.t, o.v)
}

// countingDevice passes every call through to the device below it,
// counting page reads and views and timing them — the view of blockio a
// caller outside the package can get. A view of a page in memory takes
// a few nanoseconds and the two clock reads around it several times
// that, so every access also times an empty pair of clock reads right
// after it, under the same conditions, and the two sums are subtracted.
type countingDevice struct {
	blockio.Device
	reads   uint64 // Read calls
	nviews  uint64 // View calls
	ns      int64  // time between the clock reads around Read and View
	clockNs int64  // time between as many empty pairs of clock reads
}

func (d *countingDevice) timed(t0 time.Time) {
	t1 := time.Now()
	d.ns += int64(t1.Sub(t0))
	d.clockNs += int64(time.Since(t1))
}

func (d *countingDevice) Read(id blockio.PageID, buf []byte) error {
	t0 := time.Now()
	err := d.Device.Read(id, buf)
	d.timed(t0)
	d.reads++
	return err
}

// View implements blockio.Viewer: zero-copy when the inner device can,
// a pooled copy otherwise, exactly as blockio.View decides.
func (d *countingDevice) View(id blockio.PageID) (blockio.PageView, error) {
	t0 := time.Now()
	v, err := blockio.View(d.Device, id)
	d.timed(t0)
	d.nviews++
	return v, err
}

// twinIndex is an EXACT3 over the workload's data whose device the
// benchmark can see into. It is only ever used by the single traced
// client, so its counters need no synchronisation.
type twinIndex struct {
	m    exact.Method
	dev  *countingDevice
	pool *blockio.BufferPool // non-nil on scan-disk
}

// newTwin builds the twin: on a MemDevice for the in-memory stack, on a
// FileDevice behind a buffer pool of the served index's size for
// scan-disk.
func newTwin(e *env, x *plannerX) (*twinIndex, error) {
	tw := &twinIndex{}
	cfg := core.Config{NewDevice: func(bs int) (blockio.Device, error) {
		var inner blockio.Device = blockio.NewMemDevice(bs)
		if x.diskPath != "" {
			fd, err := blockio.OpenFileDevice(x.diskPath, bs)
			if err != nil {
				return nil, err
			}
			inner = fd
		}
		tw.dev = &countingDevice{Device: inner}
		return tw.dev, nil
	}}
	if x.diskPath != "" {
		cfg.CacheBlocks = e.sc.poolBlocks
	}
	m, err := core.Build(core.Exact3, x.ds, cfg)
	if err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}
	tw.m = m
	if bp, ok := m.Device().(*blockio.BufferPool); ok {
		tw.pool = bp
		bp.ResetStats()
	}
	*tw.dev = countingDevice{Device: tw.dev.Device} // forget the build's accesses
	return tw, nil
}

// pages is the number of logical page accesses so far: every access on
// the memory twin, hits plus misses on the pooled one.
func (t *twinIndex) pages() uint64 {
	if t.pool != nil {
		h, m := t.pool.HitMiss()
		return h + m
	}
	return t.dev.nviews + t.dev.reads
}

func (t *twinIndex) views() uint64 { return t.dev.nviews + t.dev.reads }

// viewNs is the mean time of one page access on the device, net of the
// clock reads around it.
func (t *twinIndex) viewNs() float64 {
	return max(0, float64(t.dev.ns-t.dev.clockNs)/float64(t.views()))
}

func (t *twinIndex) close() error { return t.m.Device().Close() }
