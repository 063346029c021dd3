package exp

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"temporalrank"
	"temporalrank/internal/breakpoint"
	"temporalrank/internal/core"
	"temporalrank/internal/exact"
)

// Fig19 reproduces the Meme evaluation (Fig. 19a–d): index size, build
// time, query IOs and query time for all eight methods on the bursty
// dataset.
func Fig19(w io.Writer, p Params) (*Table, error) {
	p.Dataset = "meme"
	ds, err := p.MakeDataset()
	if err != nil {
		return nil, err
	}
	qs := p.MakeQueries(ds)
	t := &Table{
		Title:   fmt.Sprintf("Fig 19: Meme dataset — m=%d navg=%d k=%d r=%d", p.M, p.Navg, p.K, p.R),
		Columns: scaleColumns,
	}
	for _, name := range core.AllMethods() {
		br, err := core.BuildMeasured(name, ds, p.config())
		if err != nil {
			return nil, err
		}
		mm, err := MeasureQueries(br.Method, ds, qs, p.K)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			"meme", br.Method.Name(),
			fmtBytes(br.IndexBytes), fmtDur(br.BuildTime),
			fmtF(mm.AvgIOs), fmtDur(mm.AvgTime),
		})
	}
	t.Render(w)
	return t, nil
}

// Fig20 reproduces the Meme quality study (Fig. 20a–b):
// precision/recall and approximation ratio of the five approximate
// methods on the bursty dataset.
func Fig20(w io.Writer, p Params) (*Table, error) {
	p.Dataset = "meme"
	ds, err := p.MakeDataset()
	if err != nil {
		return nil, err
	}
	qs := p.MakeQueries(ds)
	b1, err := breakpoint.Build1(ds, breakpoint.EpsilonForR1(p.R))
	if err != nil {
		return nil, err
	}
	b2, err := breakpoint.Build2WithTargetR(ds, p.R, true)
	if err != nil {
		return nil, err
	}
	methods, err := buildApproxSet(ds, b1, b2, p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Fig 20: Meme quality — m=%d navg=%d k=%d r=%d", p.M, p.Navg, p.K, p.R),
		Columns: []string{"method", "prec/recall", "ratio"},
	}
	for _, m := range methods {
		mm, err := MeasureQueries(m, ds, qs, p.K)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{mm.Name, fmtF(mm.Precision), fmtF(mm.Ratio)})
	}
	t.Render(w)
	return t, nil
}

// Updates reproduces the §4/§5 update study as this system pays for an
// update: Planner.Append + Compact. For each method it builds a planner
// over one index, lands numAppends segments in the planner's memtable
// (auto-compaction off) and drains them with one Compact, which
// rebuilds the index over the grown data. Time per append is the
// append loop plus the compaction, over numAppends; IOs per append are
// the rebuilt index's device IOs (its build) over numAppends. This is
// the paper's amortized "update ∝ build/N", with one rebuild per batch.
func Updates(w io.Writer, p Params, numAppends int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Updates: %d appends + 1 compaction — %s m=%d navg=%d", numAppends, p.Dataset, p.M, p.Navg),
		Columns: []string{"method", "avg append time", "avg append IOs"},
	}
	// Compaction rebuilds over a copy of the data, so one dataset serves
	// every method.
	ds, err := p.MakeDataset()
	if err != nil {
		return nil, err
	}
	for _, name := range core.AllMethods() {
		db := temporalrank.NewDBFromDataset(ds)
		ix, err := db.BuildIndex(temporalrank.Options{
			Method:    temporalrank.Method(name),
			BlockSize: p.BlockSize,
			KMax:      p.KMax,
			TargetR:   p.R,
		})
		if err != nil {
			return nil, err
		}
		pl, err := temporalrank.NewPlanner(db, ix)
		if err != nil {
			return nil, err
		}
		if err := pl.EnableMemtable(temporalrank.MemtableOptions{DisableAutoCompact: true}); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(p.Seed + 7))
		frontier := make([]float64, ds.NumSeries())
		for i, s := range ds.AllSeries() {
			frontier[i] = s.End()
		}
		start := time.Now()
		for a := 0; a < numAppends; a++ {
			id := rng.Intn(ds.NumSeries())
			frontier[id] += 0.01 + rng.Float64()
			if err := pl.Append(id, frontier[id], 100+rng.Float64()*50); err != nil {
				return nil, fmt.Errorf("%s append: %w", name, err)
			}
		}
		if err := pl.Compact(context.Background()); err != nil {
			return nil, fmt.Errorf("%s compact: %w", name, err)
		}
		elapsed := time.Since(start)
		ios := pl.Indexes()[0].Stats().DeviceIOs
		t.Rows = append(t.Rows, []string{
			string(name),
			fmtDur(time.Duration(int64(elapsed) / int64(numAppends))),
			fmtF(float64(ios) / float64(numAppends)),
		})
	}
	t.Render(w)
	return t, nil
}

// Ablations measures four design choices against their alternatives:
// the ε BREAKPOINTS1 and BREAKPOINTS2 reach at the same r (B2 adapts to
// the data, so it should reach a smaller one); BREAKPOINTS2's
// efficient build against the baseline that recomputes every object at
// each cut; EXACT3's query IOs with and without a buffer pool; and
// EXACT2's IOs against EXACT3's single interval tree.
func Ablations(w io.Writer, p Params) (*Table, error) {
	ds, err := p.MakeDataset()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablations — %s m=%d navg=%d r=%d", p.Dataset, p.M, p.Navg, p.R),
		Columns: []string{"study", "variant", "value"},
	}

	// (1) B1 vs B2 effective epsilon at the same r.
	b1eps := breakpoint.EpsilonForR1(p.R)
	b2, err := breakpoint.Build2WithTargetR(ds, p.R, true)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		[]string{"eps@r", "BREAKPOINTS1", fmtSci(b1eps)},
		[]string{"eps@r", "BREAKPOINTS2", fmtSci(b2.Epsilon)},
	)

	// (2) B2 baseline vs efficient build time.
	start := time.Now()
	if _, err := breakpoint.Build2Baseline(ds, b2.Epsilon); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"B2 build", "baseline", fmtDur(time.Since(start))})
	start = time.Now()
	if _, err := breakpoint.Build2(ds, b2.Epsilon); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"B2 build", "efficient", fmtDur(time.Since(start))})

	// (3) Buffer pool: EXACT3 query IOs with and without a cache.
	qs := p.MakeQueries(ds)
	cold, err := core.Build(core.Exact3, ds, p.config())
	if err != nil {
		return nil, err
	}
	cfg := p.config()
	cfg.CacheBlocks = 2048
	warm, err := core.Build(core.Exact3, ds, cfg)
	if err != nil {
		return nil, err
	}
	measure := func(m exact.Method) float64 {
		var total uint64
		for _, q := range qs {
			st, err := core.MeasureQuery(m, p.K, q.T1, q.T2)
			if err != nil {
				return -1
			}
			total += st.IOs
		}
		return float64(total) / float64(len(qs))
	}
	t.Rows = append(t.Rows,
		[]string{"bufferpool", "EXACT3 no-cache IOs", fmtF(measure(cold))},
		[]string{"bufferpool", "EXACT3 cached IOs", fmtF(measure(warm))},
	)

	// (4) Forest (EXACT2) vs single interval tree (EXACT3) query IOs.
	e2, err := core.Build(core.Exact2, ds, p.config())
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		[]string{"forest-vs-itree", "EXACT2 IOs", fmtF(measure(e2))},
		[]string{"forest-vs-itree", "EXACT3 IOs", fmtF(measure(cold))},
	)

	t.Render(w)
	return t, nil
}
