// Command trbench is the repository's benchmark: five named workloads,
// end-to-end and per-layer metrics, and a traced decomposition, all
// from one program. README.md in this directory is the manual.
//
//	bash bench/run.sh -workload all -seed 2012
//
// Under the benchmark driver it is run as
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and prints one JSON object as the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// Values of -trace.
const (
	traceOff  = 0  // end-to-end protocol; the result line carries the end-to-end metrics
	traceOn   = 1  // per-layer protocol; the result line carries the per-layer metrics
	traceBoth = -1 // both in one run (the default when run by hand)
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	short    bool
	jsonOut  string
	traceOut string
	aa       bool
	workdir  string
}

func main() {
	var o options
	printSpec := false
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 2012, "seed of the datasets and of every query and append stream")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", traceBoth, "0: end-to-end metrics, 1: per-layer metrics (traced phase and rungs), -1: both")
	flag.BoolVar(&o.short, "short", false, "tiny datasets and short segments (what the tests run); numbers mean nothing")
	flag.StringVar(&o.jsonOut, "json", "", "also write the full report (environment, all metrics, counts) to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced phase's spans and counts to this file, as JSON lines")
	flag.BoolVar(&o.aa, "aa", false, "run the selection twice and compare the two runs' end-to-end metrics against their bounds")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the run's temporary files")
	flag.BoolVar(&printSpec, "print-spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	secondsSet := false
	flag.Visit(func(f *flag.Flag) { secondsSet = secondsSet || f.Name == "seconds" })
	if o.short && !secondsSet {
		o.seconds = 0.9 // three segments of 0.3 s
	}
	if printSpec {
		b, err := specJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	ok, err := run(o)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trbench:", err)
	os.Exit(2)
}

// run executes the selected workloads and reports whether every one of
// them was correct (and, with -aa, repeatable).
func run(o options) (bool, error) {
	var selected []*workload
	if o.workload == "all" {
		selected = workloads
	} else if w := findWorkload(o.workload); w != nil {
		selected = []*workload{w}
	} else {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 || o.trace < traceBoth || o.trace > traceOn {
		return false, fmt.Errorf("-seconds must be positive and -trace one of -1, 0, 1")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return false, err
	}
	workdir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(workdir)

	e := &env{
		ctx:     context.Background(),
		seed:    o.seed,
		seconds: o.seconds,
		sc:      fullScale,
		workdir: workdir,
		e2e:     o.trace != traceOn,
		layers:  o.trace != traceOff,
		spans:   newTracer(),
	}
	if o.short {
		e.sc = shortScale
	}

	order := selected
	passes := 1
	if o.aa {
		passes = 2
	}
	var runs [][]*result
	allCorrect := true
	for pass := 0; pass < passes; pass++ {
		if pass == 1 {
			// The second pass runs in the opposite order, so neither pass
			// always measures a workload on a fresher process.
			order = slices.Clone(selected)
			slices.Reverse(order)
		}
		var results []*result
		for _, wl := range order {
			res, err := runWorkload(e, wl)
			if err != nil {
				return false, err
			}
			printResult(res)
			allCorrect = allCorrect && res.Correct
			results = append(results, res)
		}
		runs = append(runs, results)
	}
	if o.traceOut != "" {
		if err := e.spans.writeTo(o.traceOut); err != nil {
			return false, err
		}
	}
	if o.jsonOut != "" {
		if err := writeReport(o, e, runs); err != nil {
			return false, err
		}
	}
	if o.aa {
		allCorrect = compareAA(runs[0], runs[1]) && allCorrect
	}
	// The driver reads the last line: the last workload's result with the
	// metric set -trace selects.
	last := runs[len(runs)-1]
	line, err := driverLine(last[len(last)-1], o.trace)
	if err != nil {
		return false, err
	}
	fmt.Println(line)
	return allCorrect, nil
}

// printResult prints every metric as "workload metric value unit n=…".
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		line := fmt.Sprintf("%s %s %.6g %s", res.Workload, name, v.Value, v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf(" n=%d", v.N)
		}
		if v.Tail != "" {
			line += " " + v.Tail
		}
		if len(v.Segments) > 0 {
			line += fmt.Sprintf(" segments=%.5g", v.Segments)
		}
		fmt.Println(line)
	}
	fmt.Printf("%s attempted=%d failed=%d correct=%v\n", res.Workload, res.Attempted, res.Failed, res.Correct)
	for _, v := range res.Violations {
		fmt.Printf("%s VIOLATION %s\n", res.Workload, v)
	}
}

// driverLine renders the one-line result the benchmark driver parses:
// every end-to-end metric with -trace 0, every per-layer metric
// (notMeasured where the workload does not measure it) otherwise.
func driverLine(res *result, trace int) (string, error) {
	defs := perLayer
	if trace == traceOff {
		defs = endToEnd
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		v := m.Value
		if !ok && trace != traceOff {
			v = notMeasured
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s %s is not finite", res.Workload, d.Name)
		}
		metrics[d.Name] = mv{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(b), err
}

// compareAA prints, for every bounded metric a workload measured, how far
// the second run is from the first against the metric's bound (for the
// two fail ratios, whether both are 0), and reports whether all stayed
// inside. It is the benchmark's own noise
// check: the same binary, the same seed, nothing changed.
func compareAA(a, b []*result) bool {
	byName := make(map[string]*result)
	for _, r := range b {
		byName[r.Workload] = r
	}
	ok := true
	for _, ra := range a {
		rb := byName[ra.Workload]
		for _, d := range slices.Concat(endToEnd, perLayer) {
			ma, measured := ra.Metrics[d.Name]
			if !measured || (d.Bound == 0 && !d.Zero) {
				continue
			}
			va, vb := ma.Value, rb.Metrics[d.Name].Value
			diff := math.Abs(vb - va)
			if !d.Zero {
				diff /= math.Abs(va)
			}
			verdict := "ok"
			if diff > d.Bound {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Printf("aa %s %s a=%.6g b=%.6g diff=%.4f bound=%.3f %s\n", ra.Workload, d.Name, va, vb, diff, d.Bound, verdict)
		}
	}
	return ok
}

// writeReport writes the full JSON report: the environment the numbers
// were taken in, then every run's results.
func writeReport(o options, e *env, runs [][]*result) error {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	report := struct {
		Env  map[string]any `json:"env"`
		Runs [][]*result    `json:"runs"`
	}{
		Env: map[string]any{
			"commit":     commit,
			"go":         runtime.Version(),
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"seed":       o.seed,
			"seconds":    o.seconds,
			"segments":   e.sc.segments,
			"segment_s":  o.seconds / float64(e.sc.segments),
			"short":      o.short,
		},
		Runs: runs,
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.jsonOut, append(b, '\n'), 0o644)
}
