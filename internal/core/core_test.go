package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/gen"
	"temporalrank/internal/topk"
	"temporalrank/internal/tsdata"
)

func fixture(t *testing.T) *tsdata.Dataset {
	t.Helper()
	ds, err := gen.Temp(gen.TempConfig{M: 30, Navg: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildAllMethods(t *testing.T) {
	ds := fixture(t)
	cfg := Config{TargetR: 20, KMax: 10}
	for _, name := range AllMethods() {
		m, err := Build(name, ds, cfg)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		if m.Name() != string(name) {
			t.Errorf("Build(%s).Name() = %s", name, m.Name())
		}
		if m.IndexPages() <= 0 {
			t.Errorf("%s: no pages allocated", name)
		}
	}
}

func TestBuildUnknownMethod(t *testing.T) {
	ds := fixture(t)
	if _, err := Build("NOPE", ds, Config{}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestAllMethodsAgreeOnEasyQuery(t *testing.T) {
	ds := fixture(t)
	cfg := Config{TargetR: 60, KMax: 10}
	t1 := ds.Start() + ds.Span()*0.1
	t2 := ds.Start() + ds.Span()*0.6
	want := Reference(ds, 5, t1, t2)
	for _, name := range AllMethods() {
		m, err := Build(name, ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.TopK(5, t1, t2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pr := topk.PrecisionRecall(got, want)
		minPR := 1.0
		if IsApprox(name) {
			minPR = 0.4 // smooth Temp data at r=60: approx sets overlap well
		}
		if pr < minPR {
			t.Errorf("%s precision/recall = %g, want >= %g", name, pr, minPR)
		}
	}
}

func TestBuildMeasuredPopulatesStats(t *testing.T) {
	ds := fixture(t)
	br, err := BuildMeasured(Exact3, ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if br.IndexPages <= 0 || br.IndexBytes <= 0 {
		t.Errorf("sizes not populated: %+v", br)
	}
	if br.BuildIOs.Writes == 0 {
		t.Error("build wrote no pages?")
	}
	if br.BuildTime <= 0 {
		t.Error("no build time recorded")
	}
}

func TestMeasureQueryIsolatesCounters(t *testing.T) {
	ds := fixture(t)
	m, err := Build(Exact3, ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q1, err := MeasureQuery(m, 5, ds.Start(), ds.End())
	if err != nil {
		t.Fatal(err)
	}
	q2, err := MeasureQuery(m, 5, ds.Start(), ds.End())
	if err != nil {
		t.Fatal(err)
	}
	if q1.IOs == 0 || q2.IOs == 0 {
		t.Error("queries reported zero IOs")
	}
	// Same query must report the same isolated IO count.
	if q1.IOs != q2.IOs {
		t.Errorf("counters not isolated: %d vs %d reads", q1.IOs, q2.IOs)
	}
	if len(q1.Items) != 5 {
		t.Errorf("items = %d", len(q1.Items))
	}
}

// TestMeasureQueryConcurrent: 32 goroutines measure the same seeded
// queries at once on one EXACT3 and one APPX2+ index, and each gets the
// count the query gets measured alone.
func TestMeasureQueryConcurrent(t *testing.T) {
	ds := fixture(t)
	rng := rand.New(rand.NewSource(5))
	span := ds.End() - ds.Start()
	type window struct{ t1, t2 float64 }
	qs := make([]window, 8)
	for i := range qs {
		t1 := ds.Start() + rng.Float64()*span*0.7
		qs[i] = window{t1, t1 + span*(0.05+0.25*rng.Float64())}
	}
	for _, name := range []MethodName{Exact3, Appx2P} {
		m, err := Build(name, ds, Config{TargetR: 20, KMax: 10})
		if err != nil {
			t.Fatal(err)
		}
		serial := make([]uint64, len(qs))
		for i, q := range qs {
			st, err := MeasureQuery(m, 5, q.t1, q.t2)
			if err != nil {
				t.Fatal(err)
			}
			serial[i] = st.IOs
		}
		var wg sync.WaitGroup
		errs := make(chan error, 32)
		for g := 0; g < 32; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, q := range qs {
					st, err := MeasureQuery(m, 5, q.t1, q.t2)
					if err != nil {
						errs <- err
						return
					}
					if st.IOs != serial[i] {
						errs <- fmt.Errorf("%s query %d: %d IOs, %d measured alone", name, i, st.IOs, serial[i])
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

func TestCacheBlocksWrapsPool(t *testing.T) {
	ds := fixture(t)
	m, err := Build(Exact3, ds, Config{CacheBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Device().(*blockio.BufferPool); !ok {
		t.Errorf("device is %T, want *blockio.BufferPool", m.Device())
	}
	// Repeated identical queries should become cheaper (cache hits).
	if _, err := MeasureQuery(m, 5, ds.Start(), ds.End()); err != nil {
		t.Fatal(err)
	}
	q2, err := MeasureQuery(m, 5, ds.Start(), ds.End())
	if err != nil {
		t.Fatal(err)
	}
	if q2.IOs != 0 {
		t.Errorf("second cached query still reads %d blocks", q2.IOs)
	}
}

func TestConfigEpsilonOverridesTargetR(t *testing.T) {
	ds := fixture(t)
	m, err := Build(Appx1, ds, Config{Epsilon: 0.05, KMax: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TopK(3, ds.Start(), ds.End()); err != nil {
		t.Fatal(err)
	}
}

func TestMethodLists(t *testing.T) {
	if len(AllMethods()) != 8 {
		t.Errorf("AllMethods = %d, want 8", len(AllMethods()))
	}
	if len(ExactMethods()) != 3 || len(ApproxMethods()) != 5 {
		t.Error("method partition wrong")
	}
	for _, n := range ExactMethods() {
		if IsApprox(n) {
			t.Errorf("%s marked approximate", n)
		}
	}
	for _, n := range ApproxMethods() {
		if !IsApprox(n) {
			t.Errorf("%s marked exact", n)
		}
	}
}

func TestConcurrentQueriesAcrossMethods(t *testing.T) {
	ds := fixture(t)
	cfg := Config{TargetR: 30, KMax: 10}
	for _, name := range []MethodName{Exact1, Exact3, Appx2} {
		m, err := Build(name, ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.TopK(5, ds.Start(), ds.End())
		if err != nil {
			t.Fatal(err)
		}
		const workers = 6
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func() {
				for i := 0; i < 30; i++ {
					got, err := m.TopK(5, ds.Start(), ds.End())
					if err != nil {
						errs <- err
						return
					}
					for j := range got {
						if got[j] != want[j] {
							errs <- fmt.Errorf("%s: concurrent result diverged", name)
							return
						}
					}
				}
				errs <- nil
			}()
		}
		for w := 0; w < workers; w++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
}
