package approx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"temporalrank/internal/blockio"
	"temporalrank/internal/breakpoint"
	"temporalrank/internal/topk"
	"temporalrank/internal/tsdata"
)

// This file property-tests the paper's formal guarantees with
// testing/quick over random datasets, ε values, and query intervals.

// TestDefinition2TransferProperty checks Lemma 6 end to end for APPX1:
// the j-th approximate score is an (ε,1)-approximation of BOTH its own
// object's exact score and the exact j-th ranked score, for random
// data, random ε, and random queries.
func TestDefinition2TransferProperty(t *testing.T) {
	f := func(seed int64, rawEps, c1, c2 float64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(seed, 5+rng.Intn(20), 3+rng.Intn(15), seed%3 == 0)
		eps := 0.005 + math.Abs(math.Mod(rawEps, 0.1))
		bps, err := breakpoint.Build2(ds, eps)
		if err != nil {
			return false
		}
		const kmax = 8
		q, err := BuildQuery1(blockio.NewViewOnlyDevice(512), ds, bps, kmax)
		if err != nil {
			return false
		}
		span := ds.Span()
		t1 := ds.Start() + span*frac(c1)
		t2 := t1 + (ds.End()-t1)*frac(c2)
		if t2 <= t1 {
			return true
		}
		k := 1 + rng.Intn(kmax)
		got, err := q.TopK(k, t1, t2)
		if err != nil {
			return false
		}
		ref := topk.NewCollector(k)
		for _, s := range ds.AllSeries() {
			ref.Add(s.ID, s.Range(t1, t2))
		}
		want := ref.Results()
		bound := eps*ds.M()*(1+1e-9) + 1e-9
		for j := range got {
			if j >= len(want) {
				break
			}
			// (ε,1) against the exact j-th ranked score.
			if math.Abs(got[j].Score-want[j].Score) > bound {
				return false
			}
			// (ε,1) against the returned object's own exact score.
			own := ds.Series(got[j].ID).Range(t1, t2)
			if math.Abs(got[j].Score-own) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestLemma2SnapErrorProperty: for any object and any query, the
// snapped-interval aggregate differs from the true aggregate by at
// most 2εM (εM per endpoint; Lemma 2 states εM per endpoint move).
func TestLemma2SnapErrorProperty(t *testing.T) {
	f := func(seed int64, rawEps, c1, c2 float64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(seed+1000, 3+rng.Intn(15), 2+rng.Intn(12), false)
		eps := 0.01 + math.Abs(math.Mod(rawEps, 0.2))
		bps, err := breakpoint.Build2(ds, eps)
		if err != nil {
			return false
		}
		span := ds.Span()
		t1 := ds.Start() + span*frac(c1)*0.9
		t2 := t1 + (ds.End()-t1)*frac(c2)
		if t2 <= t1 {
			return true
		}
		b1, _ := bps.Snap(t1)
		b2, _ := bps.Snap(t2)
		bound := 2*eps*ds.M()*(1+1e-9) + 1e-9
		for _, s := range ds.AllSeries() {
			exact := s.Range(t1, t2)
			snapped := s.Range(b1, b2)
			if math.Abs(exact-snapped) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuery2LowerBoundProperty: APPX2's returned score never exceeds
// σ(B(t1),B(t2)) for the same object (each dyadic piece contributes its
// true sub-aggregate or nothing), and hence never exceeds σ + εM... the
// upper half of the (ε, 2log r) guarantee.
func TestQuery2LowerBoundProperty(t *testing.T) {
	f := func(seed int64, c1, c2 float64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(seed+2000, 5+rng.Intn(15), 3+rng.Intn(10), false)
		bps, err := breakpoint.Build2(ds, 0.02)
		if err != nil {
			return false
		}
		q, err := BuildQuery2(blockio.NewViewOnlyDevice(512), ds, bps, 6)
		if err != nil {
			return false
		}
		span := ds.Span()
		t1 := ds.Start() + span*frac(c1)*0.9
		t2 := t1 + (ds.End()-t1)*frac(c2)
		if t2 <= t1 {
			return true
		}
		b1, _ := bps.Snap(t1)
		b2, _ := bps.Snap(t2)
		cands, err := q.Candidates(6, t1, t2)
		if err != nil {
			return false
		}
		for id, score := range cands {
			snapped := ds.Series(id).Range(b1, b2)
			if score > snapped*(1+1e-9)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func frac(x float64) float64 {
	x = math.Abs(math.Mod(x, 1))
	if math.IsNaN(x) {
		return 0.3
	}
	return x
}

// TestConcurrentQueries: read-only queries on a shared index must be
// safe from multiple goroutines (devices are mutex-guarded; query
// state is per-call).
func TestConcurrentQueries(t *testing.T) {
	ds := randomDataset(55, 30, 20, false)
	idx, err := NewAppx1(blockio.NewViewOnlyDevice(1024), ds, KindB2, 0.01, 10)
	if err != nil {
		t.Fatal(err)
	}
	e3ref := func(t1, t2 float64) []topk.Item {
		c := topk.NewCollector(5)
		for _, s := range ds.AllSeries() {
			c.Add(s.ID, s.Range(t1, t2))
		}
		return c.Results()
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				t1 := ds.Start() + rng.Float64()*ds.Span()*0.5
				t2 := t1 + rng.Float64()*(ds.End()-t1)
				got, err := idx.TopK(5, t1, t2)
				if err != nil {
					errs <- err
					return
				}
				_ = got
				_ = e3ref
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var _ = tsdata.SeriesID(0)
