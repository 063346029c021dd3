package exp

import (
	"fmt"
	"io"
	"time"

	"temporalrank/internal/approx"
	"temporalrank/internal/blockio"
	"temporalrank/internal/breakpoint"
	"temporalrank/internal/core"
	"temporalrank/internal/exact"
	"temporalrank/internal/tsdata"
)

// DefaultRSweep mirrors Fig. 11/12's r = 100..1000 sweep, scaled.
func DefaultRSweep(base int) []int {
	return []int{base * 2 / 3, base, base * 2, base * 3}
}

// Fig11 reproduces the preprocessing study (Fig. 11a–d): effective ε of
// B1 vs B2 at equal r, breakpoint build times (B1, B2-B, B2-E), and
// index size / build time of the five approximate methods vs EXACT3.
//
// tB2-B times breakpoint.Build2Baseline, which recomputes every
// object's next crossing at each cut. tB2-E times breakpoint.Build2,
// which places the same breakpoints but recomputes a crossing only
// once it could come due, so the gap between the columns is the saving
// of lazy refinement the paper measures. Both keep their crossings in
// a flat array rather than the paper's heap.
func Fig11(w io.Writer, p Params, rSweep []int) (*Table, error) {
	ds, err := p.MakeDataset()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Fig 11: vary r (preprocessing) — %s m=%d navg=%d kmax=%d",
			p.Dataset, p.M, p.Navg, p.KMax),
		Columns: []string{"r", "eps(B1)", "eps(B2)", "tB1", "tB2-B", "tB2-E",
			"sz:APPX1-B", "sz:APPX2-B", "sz:APPX1", "sz:APPX2", "sz:APPX2+", "sz:EXACT3",
			"bld:APPX1-B", "bld:APPX2-B", "bld:APPX1", "bld:APPX2", "bld:APPX2+", "bld:EXACT3"},
	}
	// Find B2's effective eps for each r budget: every search runs over
	// the one time-ordered segment array.
	b2s, err := breakpoint.Build2WithTargetRs(ds, rSweep, true)
	if err != nil {
		return nil, err
	}
	for i, r := range rSweep {
		eps1 := breakpoint.EpsilonForR1(r)
		start := time.Now()
		b1, err := breakpoint.Build1(ds, eps1)
		if err != nil {
			return nil, err
		}
		tB1 := time.Since(start)

		b2 := b2s[i]
		start = time.Now()
		if _, err := breakpoint.Build2Baseline(ds, b2.Epsilon); err != nil {
			return nil, err
		}
		tB2B := time.Since(start)
		start = time.Now()
		if _, err := breakpoint.Build2(ds, b2.Epsilon); err != nil {
			return nil, err
		}
		tB2E := time.Since(start)

		type built struct {
			pages int
			dur   time.Duration
		}
		buildIdx := func(f func(dev blockio.Device) (exact.Method, error)) (built, error) {
			dev := blockio.NewMemDevice(p.BlockSize)
			s := time.Now()
			m, err := f(dev)
			if err != nil {
				return built{}, err
			}
			return built{pages: m.IndexPages(), dur: time.Since(s)}, nil
		}
		a1b, err := buildIdx(func(dev blockio.Device) (exact.Method, error) {
			return approx.NewAppx1WithBreaks(dev, ds, approx.KindB1, b1, p.KMax)
		})
		if err != nil {
			return nil, err
		}
		a2b, err := buildIdx(func(dev blockio.Device) (exact.Method, error) {
			return approx.NewAppx2WithBreaks(dev, ds, approx.KindB1, b1, p.KMax)
		})
		if err != nil {
			return nil, err
		}
		a1, err := buildIdx(func(dev blockio.Device) (exact.Method, error) {
			return approx.NewAppx1WithBreaks(dev, ds, approx.KindB2, b2, p.KMax)
		})
		if err != nil {
			return nil, err
		}
		a2, err := buildIdx(func(dev blockio.Device) (exact.Method, error) {
			return approx.NewAppx2WithBreaks(dev, ds, approx.KindB2, b2, p.KMax)
		})
		if err != nil {
			return nil, err
		}
		a2p, err := buildIdx(func(dev blockio.Device) (exact.Method, error) {
			return approx.NewAppx2PlusWithBreaks(dev, ds, approx.KindB2, b2, p.KMax)
		})
		if err != nil {
			return nil, err
		}
		e3, err := buildIdx(func(dev blockio.Device) (exact.Method, error) {
			return exact.BuildExact3(dev, ds)
		})
		if err != nil {
			return nil, err
		}
		bs := int64(p.BlockSize)
		t.Rows = append(t.Rows, []string{
			fmtInt(r), fmtSci(eps1), fmtSci(b2.Epsilon),
			fmtDur(tB1), fmtDur(tB2B), fmtDur(tB2E),
			fmtBytes(int64(a1b.pages) * bs), fmtBytes(int64(a2b.pages) * bs),
			fmtBytes(int64(a1.pages) * bs), fmtBytes(int64(a2.pages) * bs),
			fmtBytes(int64(a2p.pages) * bs), fmtBytes(int64(e3.pages) * bs),
			fmtDur(a1b.dur), fmtDur(a2b.dur), fmtDur(a1.dur), fmtDur(a2.dur),
			fmtDur(a2p.dur), fmtDur(e3.dur),
		})
	}
	t.Render(w)
	return t, nil
}

// Fig12 reproduces the query study vs r (Fig. 12a–d): precision/recall,
// approximation ratio, IOs, and query time of the five approximate
// methods, with EXACT3 as the IO/time reference.
func Fig12(w io.Writer, p Params, rSweep []int) (*Table, error) {
	ds, err := p.MakeDataset()
	if err != nil {
		return nil, err
	}
	qs := p.MakeQueries(ds)
	t := &Table{
		Title: fmt.Sprintf("Fig 12: vary r (query) — %s m=%d navg=%d k=%d",
			p.Dataset, p.M, p.Navg, p.K),
		Columns: []string{"r", "method", "prec/recall", "ratio", "IOs", "time"},
	}
	b2s, err := breakpoint.Build2WithTargetRs(ds, rSweep, true)
	if err != nil {
		return nil, err
	}
	for i, r := range rSweep {
		eps1 := breakpoint.EpsilonForR1(r)
		b1, err := breakpoint.Build1(ds, eps1)
		if err != nil {
			return nil, err
		}
		methods, err := buildApproxSet(ds, b1, b2s[i], p)
		if err != nil {
			return nil, err
		}
		e3, err := exact.BuildExact3(blockio.NewMemDevice(p.BlockSize), ds)
		if err != nil {
			return nil, err
		}
		methods = append(methods, e3)
		for _, m := range methods {
			mm, err := MeasureQueries(m, ds, qs, p.K)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmtInt(r), mm.Name, fmtF(mm.Precision), fmtF(mm.Ratio),
				fmtF(mm.AvgIOs), fmtDur(mm.AvgTime),
			})
		}
	}
	t.Render(w)
	return t, nil
}

// buildApproxSet builds the five approximate methods over shared
// breakpoint sets.
func buildApproxSet(ds *tsdata.Dataset, b1, b2 *breakpoint.Set, p Params) ([]exact.Method, error) {
	var out []exact.Method
	a1b, err := approx.NewAppx1WithBreaks(blockio.NewMemDevice(p.BlockSize), ds, approx.KindB1, b1, p.KMax)
	if err != nil {
		return nil, err
	}
	a2b, err := approx.NewAppx2WithBreaks(blockio.NewMemDevice(p.BlockSize), ds, approx.KindB1, b1, p.KMax)
	if err != nil {
		return nil, err
	}
	a1, err := approx.NewAppx1WithBreaks(blockio.NewMemDevice(p.BlockSize), ds, approx.KindB2, b2, p.KMax)
	if err != nil {
		return nil, err
	}
	a2, err := approx.NewAppx2WithBreaks(blockio.NewMemDevice(p.BlockSize), ds, approx.KindB2, b2, p.KMax)
	if err != nil {
		return nil, err
	}
	a2p, err := approx.NewAppx2PlusWithBreaks(blockio.NewMemDevice(p.BlockSize), ds, approx.KindB2, b2, p.KMax)
	if err != nil {
		return nil, err
	}
	out = append(out, a1b, a2b, a1, a2, a2p)
	return out, nil
}

// selectedMethods builds the methods Figures 13–18 track (the three
// exact methods plus APPX1, APPX2, APPX2+ — the paper drops the basic
// variants after Fig. 12).
func selectedMethods(ds *tsdata.Dataset, p Params) ([]*core.BuildResult, error) {
	names := []core.MethodName{core.Exact1, core.Exact2, core.Exact3, core.Appx1, core.Appx2, core.Appx2P}
	out := make([]*core.BuildResult, 0, len(names))
	for _, n := range names {
		br, err := core.BuildMeasured(n, ds, p.config())
		if err != nil {
			return nil, err
		}
		out = append(out, br)
	}
	return out, nil
}
