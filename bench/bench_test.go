package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json at the repo root must be exactly what -print-spec
// prints, and must stay inside the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `trbench -print-spec`; regenerate it")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(want))
	}
	if n := len(workloadSpecs); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workload specs for %d workloads, want 2-8 and equal", n, len(workloads))
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	seen := make(map[string]bool)
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloadSpecs {
		use(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload spec %d is %q, workload is %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		use(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && !d.Higher
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		use(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
}

func shortEnv(t *testing.T) *env {
	t.Helper()
	return &env{
		ctx:     context.Background(),
		seed:    2012,
		seconds: 0.9,
		sc:      shortScale,
		workdir: t.TempDir(),
		e2e:     true,
		layers:  true,
		spans:   newTracer(),
	}
}

// Every workload, at -short scale: correct, no failures, every
// end-to-end metric present, finite and non-zero, every emitted name
// declared with its declared unit, and a driver line that carries
// exactly the declared metric set.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	declared := make(map[string]metricDef)
	for _, d := range endToEnd {
		declared[d.Name] = d
	}
	for _, d := range perLayer {
		declared[d.Name] = d
	}
	measuredSomewhere := make(map[string]bool)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res, err := runWorkload(shortEnv(t), wl)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d violations=%v", res.Correct, res.Attempted, res.Failed, res.Violations)
			}
			for name, v := range res.Metrics {
				d, ok := declared[name]
				if !ok {
					t.Errorf("emits undeclared metric %q", name)
					continue
				}
				if v.Unit != d.Unit {
					t.Errorf("%s: unit %q, declared %q", name, v.Unit, d.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: value %g is not finite", name, v.Value)
				}
				measuredSomewhere[name] = true
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v), want a positive value", d.Name, v.Value, ok)
				}
			}
			for _, name := range []string{"query.fail_ratio", "append.fail_ratio"} {
				if v := res.Metrics[name].Value; v != 0 {
					t.Errorf("%s = %g, want 0", name, v)
				}
			}
			if res.Metrics["bench.trace_overhead_ratio"].Value <= 0 {
				t.Error("bench.trace_overhead_ratio not reported")
			}
			for trace, defs := range map[int][]metricDef{traceOff: endToEnd, traceOn: perLayer} {
				line, err := driverLine(res, trace)
				if err != nil {
					t.Fatal(err)
				}
				var parsed struct {
					Correct   *bool
					Attempted *int64
					Failed    *int64
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				dec := json.NewDecoder(bytes.NewReader([]byte(line)))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&parsed); err != nil {
					t.Fatalf("driver line: %v\n%s", err, line)
				}
				if parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil || len(parsed.Metrics) != len(defs) {
					t.Fatalf("driver line for -trace %d has %d metrics, want %d, and all of correct/attempted/failed", trace, len(parsed.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := parsed.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
						t.Errorf("driver line for -trace %d: metric %s missing or mis-typed", trace, d.Name)
					}
				}
			}
		})
	}
	for _, d := range perLayer {
		if !measuredSomewhere[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", d.Name)
		}
	}
}

// The traced phase's counts repeat exactly for a seed: that is what
// lets a later change be judged by a count.
func TestTraceCountsRepeat(t *testing.T) {
	for _, name := range []string{"scan-exact", "repeat-approx", "scan-disk"} {
		wl := findWorkload(name)
		var counts [2]map[string]int64
		for i := range counts {
			e := shortEnv(t)
			e.e2e = false
			res, err := runWorkload(e, wl)
			if err != nil {
				t.Fatal(err)
			}
			counts[i] = res.TraceCounts
		}
		if len(counts[0]) == 0 || !reflect.DeepEqual(counts[0], counts[1]) {
			t.Errorf("%s: traced counts differ between two runs of one seed:\n%v\n%v", name, counts[0], counts[1])
		}
	}
}

// The self-assertions only run at full scale, which no test reaches, so
// they are exercised here on fabricated outcomes: each must pass what
// its workload's row describes and name what departs from it.
func TestSelfAssertions(t *testing.T) {
	e := &env{seconds: 10, sc: fullScale, layers: true}
	type outcome struct {
		res *result
		w   *window
	}
	healthy := func() outcome {
		return outcome{
			res: &result{
				Metrics: map[string]value{
					"qcache.hit_ratio":          {Value: 0.78},
					"blockio.pool_hit_ratio":    {Value: 0.3},
					"query_p95_us":              {Value: 900},
					"query.latest_p50_us":       {Value: 400},
					"remotecluster.overhead_ns": {Value: 300e3},
				},
				Sizes:       map[string]int{"segments": 200000, "appended": 12000},
				traceRootNs: map[string]float64{"remotecluster.run": 500e3},
			},
			w: &window{gens0: 2, gens1: 11, clients: []*clientState{{aAttempt: 6000}, {aAttempt: 4000}}},
		}
	}
	for _, c := range []struct {
		workload string
		name     string
		spoil    func(o outcome)
		want     string // substring of the violation; "" for none
	}{
		{"scan-exact", "healthy", func(o outcome) { o.w.clients[0].nExact3 = 500 }, ""},
		{"scan-exact", "cache hit", func(o outcome) { o.w.cache1.Hits = o.w.cache0.Hits + 1 }, "result-cache hits"},
		{"scan-exact", "other method", func(o outcome) { o.w.clients[1].nAppx2P = 1 }, "not from EXACT3"},
		{"repeat-approx", "healthy", func(o outcome) { o.w.clients[0].nAppx2P = 500 }, ""},
		{"repeat-approx", "cold cache", func(o outcome) { o.res.Metrics["qcache.hit_ratio"] = value{Value: 0.5} }, "hit ratio"},
		{"repeat-approx", "exact answer", func(o outcome) { o.w.clients[0].nExact3 = 1 }, "not from APPX2+"},
		{"scan-disk", "healthy", func(outcome) {}, ""},
		{"scan-disk", "pool holds everything", func(o outcome) { o.res.Metrics["blockio.pool_hit_ratio"] = value{Value: 0.95} }, "buffer-pool hit ratio"},
		{"ingest-mixed", "healthy", func(outcome) {}, ""},
		{"ingest-mixed", "seven compactions", func(o outcome) { o.w.gens1 = o.w.gens0 + 7 }, "compactions"},
		{"ingest-mixed", "writer starved", func(o outcome) { o.w.clients[0].aAttempt = 5000 }, "appends acknowledged"},
		{"ingest-mixed", "failed appends", func(o outcome) { o.w.clients[1].aFail = 200 }, "appends acknowledged"},
		{"ingest-mixed", "outgrew the base", func(o outcome) { o.res.Sizes["appended"] = 30000 }, "15 %"},
		{"ingest-mixed", "p95 is a cache hit", func(o outcome) { o.res.Metrics["query_p95_us"] = value{Value: 2} }, "latest-window median"},
		{"dist-rpc", "healthy", func(outcome) {}, ""},
		{"dist-rpc", "rpc is minor", func(o outcome) { o.res.Metrics["remotecluster.overhead_ns"] = value{Value: 100e3} }, "RPC overhead"},
	} {
		o := healthy()
		c.spoil(o)
		got := findWorkload(c.workload).check(e, o.res, o.w)
		switch {
		case c.want == "" && len(got) != 0:
			t.Errorf("%s, %s: unexpected violations %v", c.workload, c.name, got)
		case c.want != "" && (len(got) != 1 || !strings.Contains(got[0], c.want)):
			t.Errorf("%s, %s: violations %v, want one mentioning %q", c.workload, c.name, got, c.want)
		}
	}
}

// A per-layer metric the workload did not measure must not read as a
// measured zero on the driver's line.
func TestDriverLineMarksUnmeasured(t *testing.T) {
	res := &result{Correct: true, Attempted: 1, Metrics: map[string]value{"blockio.pin_degraded": {Value: 0, Unit: "count"}}}
	line, err := driverLine(res, traceOn)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(line), &parsed); err != nil {
		t.Fatal(err)
	}
	if got := parsed.Metrics["blockio.pin_degraded"].Value; got != 0 {
		t.Errorf("measured zero reported as %g", got)
	}
	if got := parsed.Metrics["qcache.coalesced"].Value; got != notMeasured {
		t.Errorf("unmeasured metric reported as %g, want %d", got, notMeasured)
	}
}
