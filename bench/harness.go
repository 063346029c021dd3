package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"temporalrank"
)

// This file is the run protocol shared by all workloads:
//
//	set-up (repeated while it is cheap; the median is setup_s) → verify
//	→ warm-up (discarded) → measure (segments; each reported value is
//	the median over them) → [traced phase, per-layer runs only] → drain
//	→ [rungs, per-layer runs only] → verify → teardown.
//
// Load is always two goroutines in one process (nproc is 2): closed-loop
// clients that wait for each reply, plus, on ingest-mixed, one open-loop
// writer paced by due times.

// scale holds every size knob of the benchmark.
type scale struct {
	mLarge, mSmall, navg int
	targetR, kmax        int
	cacheEntries         int // result-cache entries
	templates            int // repeat-approx templates
	mixedTemplates       int // ingest-mixed historical templates
	poolBlocks           int // scan-disk buffer pool pages
	flushSegments        int // ingest-mixed memtable flush threshold
	appendRate           int // ingest-mixed offered appends/s
	// maxSetups and setupBudget bound the repeated set-ups of an
	// end-to-end run: another one starts while fewer than maxSetups are
	// done and they have taken less than setupBudget in all.
	maxSetups   int
	setupBudget time.Duration
	segments    int // measured segments per run
	warm        time.Duration
	verifyN     int // verification queries before and after
	traceOps    int // operations in the traced replay
	rungOps     int // timed calls per per-op rung
	// assert enables the workload self-assertions, which only hold at
	// full scale.
	assert bool
}

// fullScale is what the driver runs: D-large is 8,000 x 100 (about 794k
// segments), D-small 2,000 x 100. Set-up is repeated three times where
// that fits in six seconds (the D-small stacks and scan-disk) and runs
// once where it does not (S on D-large builds in eight): the driver's
// time cap leaves a run under thirty seconds in all.
var fullScale = scale{
	mLarge: 8000, mSmall: 2000, navg: 100,
	targetR: 150, kmax: 100,
	cacheEntries: 256, templates: 4096, mixedTemplates: 1024,
	poolBlocks: 2048, flushSegments: 1024, appendRate: 1000,
	maxSetups: 3, setupBudget: 6 * time.Second, segments: 5, warm: 2 * time.Second,
	verifyN: 200, traceOps: 2000, rungOps: 400,
	assert: true,
}

// shortScale keeps every code path but finishes a workload in about a
// second; bench_test.go runs it.
var shortScale = scale{
	mLarge: 200, mSmall: 200, navg: 40,
	targetR: 100, kmax: 40,
	cacheEntries: 32, templates: 256, mixedTemplates: 128,
	poolBlocks: 16, flushSegments: 256, appendRate: 500,
	maxSetups: 2, setupBudget: time.Second, segments: 3, warm: 100 * time.Millisecond,
	verifyN: 40, traceOps: 120, rungOps: 40,
}

// env is one run's configuration.
type env struct {
	ctx     context.Context
	seed    int64
	seconds float64
	sc      scale
	workdir string // scratch directory, removed at exit
	e2e     bool   // report end-to-end metrics (set-up repeated)
	layers  bool   // run the traced phase and rungs, report per-layer metrics
	spans   *tracer
}

// appender is the write half of a serving stack.
type appender interface {
	Append(id int, t, v float64) error
}

// instance is one set-up serving stack plus the harness state around it.
type instance struct {
	sys    temporalrank.Querier
	app    appender // nil on read-only workloads
	scores scorer
	model  *model
	fr     *frontier
	dom    domain
	// templates are the workload's fixed query templates, if it has any.
	templates []temporalrank.Query

	indexBytes int64
	segments   int
	// planners are the in-process planners whose memtables the harness
	// samples and drains (nil on dist-rpc, where they sit behind RPC).
	planners   []*temporalrank.Planner
	cacheStats func() (temporalrank.CacheStats, bool)
	// resetCache, when set, replaces the result cache with an empty one,
	// so that the traced phase starts from a state that repeats.
	resetCache func()
	// drain makes every acknowledged append part of a compacted base.
	drain func(ctx context.Context) error
	close func() error
	// acked lists every acknowledged append of every phase, in issue
	// order per series; the model has them all applied.
	acked []appendRec
	// timings holds named durations taken during set-up (build.*).
	timings map[string]float64
	// x is the workload's own state for the traced phase and rungs.
	x any
}

// clientSpec is one load goroutine: a stream and, when rate > 0, an
// open-loop schedule in operations per second.
type clientSpec struct {
	st   stream
	rate int
}

// workload ties a name to its set-up, load shape and decomposition.
type workload struct {
	name string
	// setup builds the stack from env.seed. rep numbers the repeat, so
	// on-disk paths differ between repeats.
	setup func(e *env, rep int) (*instance, error)
	// clients returns the two load goroutines of the measured phase.
	clients func(e *env, inst *instance) []clientSpec
	// verifyStream yields the queries of one verification sample.
	verifyStream func(e *env, inst *instance, label string) stream
	// traceStream is the single-client operation stream the traced
	// phase replays.
	traceStream func(e *env, inst *instance) stream
	// traceWarmOps, when set, overrides how many operations the traced
	// phase replays untimed before it measures anything.
	traceWarmOps func(e *env) int
	// mirror, when set, is called with every append the traced phase's
	// untraced replays got acknowledged, so a twin stack can follow.
	mirror func(e *env, inst *instance, o op) error
	// tracedOp executes one operation of the traced replay with spans.
	tracedOp func(e *env, inst *instance, tr *tracer, seq int, o op, out *traceStats)
	// rungs runs the workload's microbenchmarks into res.
	rungs func(e *env, inst *instance, res *result) error
	// check applies the workload's self-assertions.
	check func(e *env, res *result, w *window) []string
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value (0 when it is not a sample
	// statistic).
	N int `json:"n,omitempty"`
	// Tail is the highest percentile with at least ten samples beyond
	// it, for timings: "p99.9=1234".
	Tail string `json:"tail,omitempty"`
	// Segments are the per-segment values Value is the median of.
	Segments []float64 `json:"segments,omitempty"`
}

// result is one workload run's outcome.
type result struct {
	Workload  string           `json:"workload"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Violations lists failed self-assertions and the first error seen.
	Violations []string `json:"violations,omitempty"`
	// TraceCounts are the traced phase's exact counts; they repeat for a
	// seed.
	TraceCounts map[string]int64 `json:"trace_counts,omitempty"`
	Sizes       map[string]int   `json:"sizes"`
	// traceRootNs is the traced phase's median root-span duration per
	// root name, for self-assertions that compare a layer with the call
	// it is part of under the same single-client conditions.
	traceRootNs map[string]float64
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = value{Value: v, Unit: unit}
}

func (r *result) setN(name string, v float64, unit string, n int) {
	r.Metrics[name] = value{Value: v, Unit: unit, N: n}
}

// clientState is what one load goroutine records.
type clientState struct {
	qLat, aLat [][]int64 // per segment, nanoseconds
	// latestLat and histLat split qLat by kind on ingest-mixed, whole
	// window.
	latestLat, histLat []int64
	late               []int64 // open-loop generator lateness, nanoseconds
	qAttempt           int64
	qFail              int64
	aAttempt           int64
	aFail              int64
	// acked lists every acknowledged append, warm-up included: the model
	// needs them all.
	acked    []appendRec
	nExact3  int64
	nAppx2P  int64
	nOther   int64
	firstErr error
}

// window is the measured phase's raw outcome.
type window struct {
	segSeconds float64
	clients    []*clientState
	cache0     temporalrank.CacheStats
	cache1     temporalrank.CacheStats
	hasCache   bool
	mem0, mem1 runtime.MemStats
	gens0      uint64
	gens1      uint64
	// sampler results (per-layer runs only).
	samples, compactingSamples int
	activeSeriesSum            float64
}

func (w *window) queries() (attempt, fail int64) {
	for _, c := range w.clients {
		attempt += c.qAttempt
		fail += c.qFail
	}
	return
}

func (w *window) appends() (attempt, fail int64) {
	for _, c := range w.clients {
		attempt += c.aAttempt
		fail += c.aFail
	}
	return
}

// segStats reduces one operation kind's samples segment by segment.
func (w *window) segStats(pick func(*clientState) [][]int64) []segmentStat {
	n := len(pick(w.clients[0]))
	out := make([]segmentStat, n)
	for s := 0; s < n; s++ {
		per := make([][]int64, len(w.clients))
		for i, c := range w.clients {
			per[i] = pick(c)[s]
		}
		out[s] = summarizeSegment(per, w.segSeconds)
	}
	return out
}

func allSamples(w *window, pick func(*clientState) [][]int64) []int64 {
	var all []int64
	for _, c := range w.clients {
		for _, seg := range pick(c) {
			all = append(all, seg...)
		}
	}
	return all
}

// generations sums the completed compactions of the instance's planners.
func generations(inst *instance) uint64 {
	var g uint64
	for _, p := range inst.planners {
		if p == nil {
			continue
		}
		if st, ok := p.MemtableStats(); ok {
			g += st.Generations
		}
	}
	return g
}

// measure runs the warm-up and the measured segments.
func measure(e *env, inst *instance, specs []clientSpec) *window {
	nseg := e.sc.segments
	segDur := time.Duration(e.seconds / float64(nseg) * float64(time.Second))
	w := &window{segSeconds: segDur.Seconds()}
	begin := time.Now()
	t0 := begin.Add(e.sc.warm)
	tEnd := t0.Add(time.Duration(nseg) * segDur)

	var wg sync.WaitGroup
	for _, spec := range specs {
		c := &clientState{qLat: make([][]int64, nseg), aLat: make([][]int64, nseg)}
		w.clients = append(w.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			runClient(e.ctx, inst, spec, c, begin, t0, tEnd, segDur)
		}()
	}
	// The memtable sampler runs only beside an in-process writer: a third
	// goroutine waking every 10 ms beside two busy clients costs a
	// read-only workload its tail (scan-exact's p99 went from 0.45 to
	// 2.2 ms), and without a writer there is nothing to sample.
	stopSampler := make(chan struct{})
	if e.layers && inst.app != nil && len(inst.planners) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sampleMemtables(inst, w, t0, stopSampler)
		}()
	}

	time.Sleep(time.Until(t0))
	if inst.cacheStats != nil {
		w.cache0, w.hasCache = inst.cacheStats()
	}
	w.gens0 = generations(inst)
	runtime.ReadMemStats(&w.mem0)
	time.Sleep(time.Until(tEnd))
	runtime.ReadMemStats(&w.mem1)
	if inst.cacheStats != nil {
		w.cache1, _ = inst.cacheStats()
	}
	w.gens1 = generations(inst)
	close(stopSampler)
	wg.Wait()
	return w
}

// sampleMemtables polls the planners' memtable state every 10 ms over
// the measured window.
func sampleMemtables(inst *instance, w *window, t0 time.Time, stop <-chan struct{}) {
	time.Sleep(time.Until(t0))
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		active, compacting := 0, false
		for _, p := range inst.planners {
			if p == nil {
				continue
			}
			if st, ok := p.MemtableStats(); ok {
				active += st.ActiveSeries
				compacting = compacting || st.Compacting
			}
		}
		w.samples++
		w.activeSeriesSum += float64(active)
		if compacting {
			w.compactingSamples++
		}
	}
}

// runClient is one load goroutine. Operations that complete before t0
// are warm-up: executed, logged for the model, not timed.
func runClient(ctx context.Context, inst *instance, spec clientSpec, c *clientState, begin, t0, tEnd time.Time, segDur time.Duration) {
	var pace *pacer
	if spec.rate > 0 {
		pace = newPacer(begin, spec.rate)
	}
	for {
		var due time.Time
		var late time.Duration
		if pace != nil {
			due, late = pace.wait()
			if !due.Before(tEnd) {
				return
			}
		}
		o := spec.st.next()
		start := time.Now()
		if pace == nil {
			// Closed loop: latency is the caller-observed wall time.
			due = start
			if !start.Before(tEnd) {
				return
			}
		}
		var (
			ans temporalrank.Answer
			err error
		)
		if o.isAppend {
			err = inst.app.Append(o.id, o.t, o.v)
		} else {
			ans, err = inst.sys.Run(ctx, o.q)
			if err == nil && len(ans.Results) != o.q.K {
				err = fmt.Errorf("%d results for k=%d", len(ans.Results), o.q.K)
			}
		}
		end := time.Now()
		if o.isAppend && err == nil {
			c.acked = append(c.acked, appendRec{o.id, o.t, o.v})
			inst.fr.acknowledge(o.t)
		}
		if end.Before(t0) {
			if err != nil && c.firstErr == nil {
				c.firstErr = err
			}
			continue
		}
		seg := int(end.Sub(t0) / segDur)
		if seg >= len(c.qLat) {
			continue
		}
		lat := int64(end.Sub(due))
		switch {
		case o.isAppend:
			c.aAttempt++
			if pace != nil {
				c.late = append(c.late, int64(late))
			}
			if err != nil {
				c.aFail++
			} else {
				c.aLat[seg] = append(c.aLat[seg], lat)
			}
		default:
			c.qAttempt++
			if err != nil {
				c.qFail++
				break
			}
			c.qLat[seg] = append(c.qLat[seg], lat)
			if o.latest {
				c.latestLat = append(c.latestLat, lat)
			} else {
				c.histLat = append(c.histLat, lat)
			}
			switch ans.Method {
			case temporalrank.MethodExact3:
				c.nExact3++
			case temporalrank.MethodAppx2P:
				c.nAppx2P++
			default:
				c.nOther++
			}
		}
		if err != nil && c.firstErr == nil {
			c.firstErr = err
		}
	}
}

// setupRepeated sets the workload up, on an end-to-end run repeatedly
// while the scale's budget allows, keeps the last instance, and returns
// each repeat's duration in seconds.
func setupRepeated(e *env, wl *workload) (*instance, []float64, error) {
	n := 1
	if e.e2e {
		n = e.sc.maxSetups
	}
	var (
		inst  *instance
		times []float64
		spent time.Duration
	)
	for rep := 0; rep < n && (rep == 0 || spent < e.sc.setupBudget); rep++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
			inst = nil
			runtime.GC() // outside the timing: the previous stack is garbage now
		}
		t0 := time.Now()
		var err error
		if inst, err = wl.setup(e, rep); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
	}
	return inst, times, nil
}

// runWorkload executes the whole protocol for one workload.
func runWorkload(e *env, wl *workload) (res *result, err error) {
	res = &result{Workload: wl.name, Metrics: make(map[string]value), Sizes: make(map[string]int)}
	inst, setupTimes, err := setupRepeated(e, wl)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.setN("setup_s", median(setupTimes), "s", len(setupTimes))
	res.set("heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB")
	res.set("index_bytes_per_seg", float64(inst.indexBytes)/float64(inst.segments), "B")
	res.Sizes["series"] = inst.model.ds.NumSeries()
	res.Sizes["segments"] = inst.segments

	ver := verifySample(e.ctx, inst.sys, inst.model, takeQueries(wl.verifyStream(e, inst, "verify-pre"), e.sc.verifyN), e.sc.targetR)

	// The measured phase comes first, on the stack as set up, so that its
	// numbers are the same whether or not a traced phase follows.
	w := measure(e, inst, wl.clients(e, inst))
	for _, c := range w.clients {
		if err := inst.model.apply(c.acked); err != nil {
			return nil, err
		}
		inst.acked = append(inst.acked, c.acked...)
	}
	if e.layers {
		if err := tracedPhase(e, wl, inst, res); err != nil {
			return nil, err
		}
	}
	// Writers have stopped. Draining makes every acknowledged append part
	// of a compacted base, and leaves no compaction running beside the
	// rungs, which are timed with nothing else going on.
	if err := inst.drain(e.ctx); err != nil {
		return nil, fmt.Errorf("%s: drain: %w", wl.name, err)
	}
	if e.layers {
		if err := wl.rungs(e, inst, res); err != nil {
			return nil, fmt.Errorf("%s: rungs: %w", wl.name, err)
		}
		for name, s := range inst.timings {
			res.set(name, s, "s")
		}
	}
	// Verify again: every acknowledged append must be in the model and
	// readable from the stack.
	lost := 0
	var lostErr error
	if inst.app != nil {
		lost, lostErr = unreadableAppends(inst.scores, inst.model, inst.acked)
	}
	ver.add(verifySample(e.ctx, inst.sys, inst.model, takeQueries(wl.verifyStream(e, inst, "verify-post"), e.sc.verifyN), e.sc.targetR))
	res.Sizes["appended"] = inst.model.appended

	report(res, w, ver, lost)
	for _, err := range []error{ver.firstErr, lostErr} {
		if err != nil {
			res.Violations = append(res.Violations, err.Error())
		}
	}
	for _, c := range w.clients {
		if c.firstErr != nil {
			res.Violations = append(res.Violations, "client: "+c.firstErr.Error())
			break
		}
	}
	if e.sc.assert {
		res.Violations = append(res.Violations, wl.check(e, res, w)...)
	}
	res.Correct = res.Failed == 0 && len(res.Violations) == 0
	return res, nil
}

// report turns the measured window and the verification verdict into
// metrics.
func report(res *result, w *window, ver verdict, lost int) {
	qAttempt, qFail := w.queries()
	aAttempt, aFail := w.appends()
	aFail += int64(lost)
	res.Attempted = qAttempt + aAttempt + int64(ver.attempted)
	res.Failed = qFail + aFail + int64(ver.failed)

	reportTimings(res, w, [4]string{"query_ops_s", "query_p50_us", "query_p95_us", "tail.query_p99_us"},
		func(c *clientState) [][]int64 { return c.qLat })
	res.setN("precision_at_k", ver.precision(), "ratio", ver.attempted)
	if ver.nApprox > 0 {
		res.setN("approx.ratio", ver.ratio(), "ratio", ver.nApprox)
	}

	res.set("query.fail_ratio", ratio(float64(qFail+int64(ver.failed)), float64(qAttempt+int64(ver.attempted))), "ratio")
	var latest, hist []int64
	for _, c := range w.clients {
		latest = append(latest, c.latestLat...)
		hist = append(hist, c.histLat...)
	}
	if len(latest) > 0 {
		res.setN("query.latest_p50_us", medianInt64(latest)/1e3, "us", len(latest))
		res.setN("query.hist_p50_us", medianInt64(hist)/1e3, "us", len(hist))
	}
	if aAttempt > 0 {
		reportTimings(res, w, [4]string{"append.ops_s", "append.p50_us", "append.p95_us", "append.p99_us"},
			func(c *clientState) [][]int64 { return c.aLat })
		res.set("append.fail_ratio", ratio(float64(aFail), float64(aAttempt)), "ratio")
		var late []int64
		for _, c := range w.clients {
			late = append(late, c.late...)
		}
		if len(late) > 0 {
			res.setN("bench.writer_late_p99_us", percentileOf(late, 0.99)/1e3, "us", len(late))
		}
	}
	if w.hasCache {
		d := temporalrank.CacheStats{
			Hits:      w.cache1.Hits - w.cache0.Hits,
			Misses:    w.cache1.Misses - w.cache0.Misses,
			Coalesced: w.cache1.Coalesced - w.cache0.Coalesced,
		}
		res.set("qcache.hit_ratio", d.HitRatio(), "ratio")
		res.set("qcache.coalesced", float64(d.Coalesced), "count")
	}
	res.set("memtable.compactions", float64(w.gens1-w.gens0), "count")
	if w.samples > 0 {
		res.setN("memtable.active_series_mean", w.activeSeriesSum/float64(w.samples), "count", w.samples)
		res.setN("memtable.compacting_share", float64(w.compactingSamples)/float64(w.samples), "ratio", w.samples)
	}
	if qAttempt > 0 {
		res.set("go.allocs_per_query", float64(w.mem1.Mallocs-w.mem0.Mallocs)/float64(qAttempt+aAttempt), "count")
	}
	res.set("go.gc_cycles", float64(w.mem1.NumGC-w.mem0.NumGC), "count")
	res.set("go.gc_pause_ms", float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs)/1e6, "ms")
}

// reportTimings reports one operation kind's throughput and latency
// percentiles under the given names (ops/s, p50, p95, p99): each the
// median over the measured segments, with the segments alongside.
func reportTimings(res *result, w *window, names [4]string, pick func(*clientState) [][]int64) {
	segs := w.segStats(pick)
	all := allSamples(w, pick)
	for i, f := range []func(segmentStat) float64{
		func(s segmentStat) float64 { return s.opsPerS },
		func(s segmentStat) float64 { return s.p50 },
		func(s segmentStat) float64 { return s.p95 },
		func(s segmentStat) float64 { return s.p99 },
	} {
		v := value{Unit: "us", N: len(all)}
		v.Value, v.Segments = reduceSegments(segs, f)
		if i == 0 {
			v.Unit = "1/s"
		}
		if i == 3 {
			v.Tail = tailLabel(all)
		}
		res.Metrics[names[i]] = v
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tailLabel renders the highest resolvable percentile of ns, e.g.
// "p99.9=1234us".
func tailLabel(ns []int64) string {
	p, v, ok := tailOf(ns)
	if !ok {
		return ""
	}
	return fmt.Sprintf("p%g=%.1fus", p*100, v/1e3)
}
