// Package exp is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (§5, Figures 11–20 plus the
// update study) on the synthetic Temp and Meme workloads, printing one
// row per parameter setting with the same series the paper plots.
//
// Each Fig* function is self-contained: it generates data, builds the
// methods under test, runs measured queries, and returns a Table (also
// rendered to the writer). cmd/rankbench exposes them on the command
// line; the root bench_test.go exposes them as testing.B benchmarks.
package exp

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"text/tabwriter"
	"time"

	"temporalrank/internal/core"
	"temporalrank/internal/exact"
	"temporalrank/internal/gen"
	"temporalrank/internal/topk"
	"temporalrank/internal/tsdata"
)

// Params scales an experiment. The zero value is unusable; start from
// DefaultParams (laptop-scale defaults standing in for the paper's
// defaults m=50,000, navg=1,000, kmax=200, k=50, r=500).
type Params struct {
	Dataset      string // "temp" or "meme"
	M            int    // number of objects
	Navg         int    // average segments per object
	Seed         int64
	KMax         int     // max k the approximate indexes support
	K            int     // query k
	R            int     // breakpoint budget
	IntervalFrac float64 // (t2-t1) as a fraction of T
	NumQueries   int     // queries averaged per measurement
	BlockSize    int
}

// DefaultParams returns the laptop-scale defaults.
func DefaultParams() Params {
	return Params{
		Dataset:      "temp",
		M:            1000,
		Navg:         100,
		Seed:         2012, // the paper's year, for luck and determinism
		KMax:         100,
		K:            20,
		R:            150,
		IntervalFrac: 0.20,
		NumQueries:   40,
		BlockSize:    4096,
	}
}

// Scaled returns a copy with M and Navg overridden when positive.
func (p Params) Scaled(m, navg int) Params {
	if m > 0 {
		p.M = m
	}
	if navg > 0 {
		p.Navg = navg
	}
	return p
}

// MakeDataset builds the configured synthetic dataset.
func (p Params) MakeDataset() (*tsdata.Dataset, error) {
	switch p.Dataset {
	case "", "temp":
		return gen.Temp(gen.TempConfig{M: p.M, Navg: p.Navg, Seed: p.Seed})
	case "meme":
		return gen.Meme(gen.MemeConfig{M: p.M, Navg: p.Navg, Seed: p.Seed})
	case "walk":
		return gen.RandomWalk(gen.RandomWalkConfig{M: p.M, Navg: p.Navg, Seed: p.Seed})
	default:
		return nil, fmt.Errorf("exp: unknown dataset %q", p.Dataset)
	}
}

func (p Params) config() core.Config {
	return core.Config{BlockSize: p.BlockSize, KMax: p.KMax, TargetR: p.R}
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Render prints the table aligned.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
}

// Cell formatting helpers.
func fmtInt(v int) string     { return fmt.Sprintf("%d", v) }
func fmtU64(v uint64) string  { return fmt.Sprintf("%d", v) }
func fmtBytes(v int64) string { return fmt.Sprintf("%d", v) }
func fmtF(v float64) string   { return fmt.Sprintf("%.4f", v) }
func fmtSci(v float64) string { return fmt.Sprintf("%.3g", v) }
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}

// Query is one measured query interval.
type Query struct{ T1, T2 float64 }

// MakeQueries draws NumQueries random intervals of the configured
// length, reproducibly.
func (p Params) MakeQueries(ds *tsdata.Dataset) []Query {
	rng := rand.New(rand.NewSource(p.Seed + 1))
	span := ds.Span()
	length := span * p.IntervalFrac
	qs := make([]Query, p.NumQueries)
	for i := range qs {
		t1 := ds.Start() + rng.Float64()*(span-length)
		qs[i] = Query{T1: t1, T2: t1 + length}
	}
	return qs
}

// MethodMeasurement aggregates query metrics for one method.
type MethodMeasurement struct {
	Name      string
	AvgIOs    float64
	AvgTime   time.Duration
	Precision float64
	Ratio     float64
}

// MeasureQueries runs all queries through a method, comparing against
// ground truth from the dataset. It makes three passes: the first
// counts IOs and scores each answer against a brute-force reference,
// the second warms up untimed, and the third is timed, so no reference
// runs between timed queries.
func MeasureQueries(m exact.Method, ds *tsdata.Dataset, qs []Query, k int) (*MethodMeasurement, error) {
	var (
		totalIOs  uint64
		totalTime time.Duration
		prSum     float64
		ratioSum  float64
	)
	for _, q := range qs {
		st, err := core.MeasureQuery(m, k, q.T1, q.T2)
		if err != nil {
			return nil, err
		}
		totalIOs += st.IOs
		want := core.Reference(ds, k, q.T1, q.T2)
		prSum += topk.PrecisionRecall(st.Items, want)
		ratioSum += topk.ApproxRatio(st.Items, func(id tsdata.SeriesID) float64 {
			return ds.Series(id).Range(q.T1, q.T2)
		})
	}
	for _, timed := range []bool{false, true} {
		for _, q := range qs {
			st, err := core.MeasureQuery(m, k, q.T1, q.T2)
			if err != nil {
				return nil, err
			}
			if timed {
				totalTime += st.Elapsed
			}
		}
	}
	n := float64(len(qs))
	return &MethodMeasurement{
		Name:      m.Name(),
		AvgIOs:    float64(totalIOs) / n,
		AvgTime:   time.Duration(float64(totalTime) / n),
		Precision: prSum / n,
		Ratio:     ratioSum / n,
	}, nil
}
