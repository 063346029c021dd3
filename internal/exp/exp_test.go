package exp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// tinyParams keeps harness tests fast.
func tinyParams() Params {
	p := DefaultParams()
	p.M = 40
	p.Navg = 25
	p.KMax = 10
	p.K = 5
	p.R = 25
	p.NumQueries = 5
	return p
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestFig11Shape(t *testing.T) {
	var buf bytes.Buffer
	tab, err := Fig11(&buf, tinyParams(), []int{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	if len(tab.Rows[0]) != len(tab.Columns) {
		t.Fatalf("row width %d != %d columns", len(tab.Rows[0]), len(tab.Columns))
	}
	// Fig 11a effect: eps(B2) < eps(B1) at the same r.
	for _, row := range tab.Rows {
		eps1 := parseF(t, row[1])
		eps2 := parseF(t, row[2])
		if eps2 >= eps1 {
			t.Errorf("r=%s: eps(B2)=%g not below eps(B1)=%g", row[0], eps2, eps1)
		}
	}
	if !strings.Contains(buf.String(), "Fig 11") {
		t.Error("table not rendered")
	}
}

func TestFig12ShapeAndOrdering(t *testing.T) {
	var buf bytes.Buffer
	tab, err := Fig12(&buf, tinyParams(), []int{20})
	if err != nil {
		t.Fatal(err)
	}
	// 5 approx + EXACT3 = 6 rows.
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	ios := map[string]float64{}
	for _, row := range tab.Rows {
		ios[row[1]] = parseF(t, row[4])
	}
	// Fig 12c effect: the pure approximate methods beat EXACT3 on IOs.
	for _, m := range []string{"APPX1", "APPX2", "APPX1-B", "APPX2-B"} {
		if ios[m] >= ios["EXACT3"] {
			t.Errorf("%s IOs (%g) not below EXACT3 (%g)", m, ios[m], ios["EXACT3"])
		}
	}
}

func TestFig13Ordering(t *testing.T) {
	var buf bytes.Buffer
	tab, err := Fig13(&buf, tinyParams(), []int{20, 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 (2 settings x 6 methods)", len(tab.Rows))
	}
	// EXACT2 query IOs grow with m; APPX1 IOs stay flat-ish (Fig 13c).
	get := func(setting, method string) float64 {
		for _, row := range tab.Rows {
			if row[0] == setting && row[1] == method {
				return parseF(t, row[4])
			}
		}
		t.Fatalf("row %s/%s missing", setting, method)
		return 0
	}
	if get("m=60", "EXACT2") <= get("m=20", "EXACT2") {
		t.Error("EXACT2 IOs should grow with m")
	}
	if get("m=60", "APPX1") > get("m=20", "APPX1")*2 {
		t.Error("APPX1 IOs should be m-independent")
	}
}

func TestFig14Runs(t *testing.T) {
	var buf bytes.Buffer
	tab, err := Fig14(&buf, tinyParams(), []int{15, 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig15QualityBounds(t *testing.T) {
	var buf bytes.Buffer
	tab, err := Fig15(&buf, tinyParams(), []int{30}, []int{20})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		pr := parseF(t, row[2])
		if pr < 0 || pr > 1 {
			t.Errorf("precision %g out of [0,1]", pr)
		}
		ratio := parseF(t, row[3])
		if ratio < 0.2 || ratio > 3 {
			t.Errorf("%s ratio %g implausible", row[1], ratio)
		}
	}
}

func TestFig16Exact1Grows(t *testing.T) {
	p := tinyParams()
	p.M = 30
	p.Navg = 60
	var buf bytes.Buffer
	tab, err := Fig16(&buf, p, []float64{0.02, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	get := func(frac, method string) float64 {
		for _, row := range tab.Rows {
			if row[0] == frac && row[1] == method {
				return parseF(t, row[2])
			}
		}
		t.Fatalf("row %s/%s missing", frac, method)
		return 0
	}
	if get("50%", "EXACT1") <= get("2%", "EXACT1") {
		t.Error("EXACT1 IOs must grow with the interval (Fig 16a)")
	}
	if get("50%", "EXACT3") > 3*get("2%", "EXACT3") {
		t.Error("EXACT3 IOs should be interval-insensitive")
	}
}

func TestFig17Runs(t *testing.T) {
	var buf bytes.Buffer
	tab, err := Fig17(&buf, tinyParams(), []int{2, 5, 50})
	if err != nil {
		t.Fatal(err)
	}
	// k=50 > kmax=10 is skipped: 2 settings x 6 methods.
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(tab.Rows))
	}
}

func TestFig18KmaxAffectsApproxSizeOnly(t *testing.T) {
	var buf bytes.Buffer
	// Small blocks so a kmax doubling crosses page boundaries (at 4KB
	// both tiny lists round up to one page and the growth is invisible).
	p := tinyParams()
	p.BlockSize = 128
	tab, err := Fig18(&buf, p, []int{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	get := func(setting, method string) float64 {
		for _, row := range tab.Rows {
			if row[0] == setting && row[1] == method {
				return parseF(t, row[2])
			}
		}
		t.Fatalf("row %s/%s missing", setting, method)
		return 0
	}
	if get("kmax=10", "APPX1") <= get("kmax=5", "APPX1") {
		t.Error("APPX1 size should grow with kmax")
	}
	if get("kmax=10", "EXACT3") != get("kmax=5", "EXACT3") {
		t.Error("EXACT3 size must not depend on kmax")
	}
}

func TestFig19AllMethods(t *testing.T) {
	p := tinyParams()
	var buf bytes.Buffer
	tab, err := Fig19(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 methods", len(tab.Rows))
	}
}

func TestFig20Quality(t *testing.T) {
	p := tinyParams()
	var buf bytes.Buffer
	tab, err := Fig20(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 approx methods", len(tab.Rows))
	}
}

func TestUpdates(t *testing.T) {
	p := tinyParams()
	var buf bytes.Buffer
	tab, err := Updates(&buf, p, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tab.Rows))
	}
	// Every row includes a compaction, which rebuilds the index.
	for _, row := range tab.Rows {
		if ios := parseF(t, row[2]); ios <= 0 {
			t.Errorf("%s: %g IOs per append, want > 0", row[0], ios)
		}
	}
}

func TestAblations(t *testing.T) {
	p := tinyParams()
	var buf bytes.Buffer
	tab, err := Ablations(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Cached EXACT3 must not exceed uncached IOs.
	var cached, uncached float64 = -1, -1
	for _, row := range tab.Rows {
		if row[0] == "bufferpool" && strings.Contains(row[1], "no-cache") {
			uncached = parseF(t, row[2])
		}
		if row[0] == "bufferpool" && strings.Contains(row[1], "cached") {
			cached = parseF(t, row[2])
		}
	}
	if cached < 0 || uncached < 0 || cached > uncached {
		t.Errorf("bufferpool ablation: cached=%g uncached=%g", cached, uncached)
	}
}

func TestMakeDatasetKinds(t *testing.T) {
	for _, d := range []string{"temp", "meme", "walk"} {
		p := tinyParams()
		p.Dataset = d
		if _, err := p.MakeDataset(); err != nil {
			t.Errorf("%s: %v", d, err)
		}
	}
	p := tinyParams()
	p.Dataset = "nope"
	if _, err := p.MakeDataset(); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestMakeQueriesReproducible(t *testing.T) {
	p := tinyParams()
	ds, err := p.MakeDataset()
	if err != nil {
		t.Fatal(err)
	}
	a := p.MakeQueries(ds)
	b := p.MakeQueries(ds)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("queries not reproducible")
		}
	}
	for _, q := range a {
		if q.T1 < ds.Start() || q.T2 > ds.End() || q.T2 <= q.T1 {
			t.Fatalf("query %+v outside domain [%g,%g]", q, ds.Start(), ds.End())
		}
	}
}
