package main

import (
	"context"
	"fmt"
	"math"

	"temporalrank"
	"temporalrank/internal/topk"
	"temporalrank/internal/tsdata"
)

// This file is the benchmark's correctness check. The harness keeps its
// own model of the data — the generated base dataset plus every append
// it issued and saw acknowledged — and compares sampled answers of the
// system under test with brute force over that model.

// appendRec is one acknowledged append.
type appendRec struct {
	id   int
	t, v float64
}

// model is the harness's copy of the data.
type model struct {
	ds *tsdata.Dataset
	db *temporalrank.DB
	// baseSegments and baseEnd describe the data before any append;
	// baseEnd[id] is where series id's appended range starts.
	baseSegments int
	baseEnd      []float64
	appended     int
	// touched marks series that received at least one append.
	touched map[int]bool
}

// newModel clones ds, so the system under test and the model never
// share mutable state.
func newModel(ds *tsdata.Dataset) *model {
	c := ds.Clone()
	m := &model{
		ds:           c,
		db:           temporalrank.NewDBFromDataset(c),
		baseSegments: c.NumSegments(),
		baseEnd:      make([]float64, c.NumSeries()),
		touched:      make(map[int]bool),
	}
	for i, s := range c.AllSeries() {
		m.baseEnd[i] = s.End()
	}
	return m
}

// apply extends the model with acknowledged appends. recs must list
// each series' appends in the order they were issued.
func (m *model) apply(recs []appendRec) error {
	for _, r := range recs {
		if err := m.ds.Series(tsdata.SeriesID(r.id)).Append(r.t, r.v); err != nil {
			return fmt.Errorf("model: append(%d, %g): %w", r.id, r.t, err)
		}
		m.touched[r.id] = true
	}
	m.appended += len(recs)
	m.ds.Refresh()
	return nil
}

// verdict accumulates a verification sample's outcome.
type verdict struct {
	attempted, failed int
	// precisionSum adds up |answer ∩ truth| / k per query; ratioSum adds
	// up the paper's approximation ratio over the nApprox approximate
	// answers.
	precisionSum float64
	ratioSum     float64
	nApprox      int
	firstErr     error
}

func (v *verdict) fail(err error) {
	v.failed++
	if v.firstErr == nil {
		v.firstErr = err
	}
}

func (v *verdict) add(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.precisionSum += o.precisionSum
	v.ratioSum += o.ratioSum
	v.nApprox += o.nApprox
	if v.firstErr == nil {
		v.firstErr = o.firstErr
	}
}

func (v verdict) precision() float64 {
	if v.attempted == 0 {
		return 0
	}
	return v.precisionSum / float64(v.attempted)
}

func (v verdict) ratio() float64 {
	if v.nApprox == 0 {
		return 0
	}
	return v.ratioSum / float64(v.nApprox)
}

// verifySample runs qs through sys and through brute force over the
// model and compares them with the comparator semantics of the repo's
// mixed-workload suite: an exact answer must match rank by rank (scores
// within 1e-9 relative, ties passing on score alone), an approximate
// one must sit inside the paper's per-rank (ε,α) bound with
// α = 2·log₂(r+1). An error from sys counts as a failure.
func verifySample(ctx context.Context, sys temporalrank.Querier, m *model, qs []temporalrank.Query, targetR int) verdict {
	var v verdict
	for _, q := range qs {
		v.attempted++
		got, err := sys.Run(ctx, q)
		if err != nil {
			v.fail(fmt.Errorf("verify %s[%g,%g]: %w", q.Agg, q.T1, q.T2, err))
			continue
		}
		want, err := m.db.Run(ctx, q)
		if err != nil {
			v.fail(fmt.Errorf("verify reference: %w", err))
			continue
		}
		if got.Exact {
			err = checkExact(got, want)
		} else {
			err = checkApprox(got, want, m.ds.M(), targetR)
			v.nApprox++
			v.ratioSum += topk.ApproxRatio(toItems(got.Results), func(id tsdata.SeriesID) float64 {
				s := m.ds.Range(id, q.T1, q.T2)
				if q.Agg == temporalrank.AggAvg {
					s /= q.T2 - q.T1
				}
				return s
			})
		}
		if err != nil {
			v.fail(fmt.Errorf("verify %s[%g,%g] via %s: %w", q.Agg, q.T1, q.T2, got.Method, err))
			continue
		}
		v.precisionSum += topk.PrecisionRecall(toItems(got.Results), toItems(want.Results))
	}
	return v
}

func toItems(rs []temporalrank.Result) []topk.Item {
	out := make([]topk.Item, len(rs))
	for i, r := range rs {
		out[i] = topk.Item{ID: tsdata.SeriesID(r.ID), Score: r.Score}
	}
	return out
}

func checkExact(got, want temporalrank.Answer) error {
	if len(got.Results) != len(want.Results) {
		return fmt.Errorf("%d results, want %d", len(got.Results), len(want.Results))
	}
	for j := range want.Results {
		g, w := got.Results[j].Score, want.Results[j].Score
		if math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
			return fmt.Errorf("rank %d: score %g (id %d), want %g (id %d)",
				j, g, got.Results[j].ID, w, want.Results[j].ID)
		}
	}
	return nil
}

func checkApprox(got, want temporalrank.Answer, mass float64, targetR int) error {
	if len(got.Results) != len(want.Results) {
		return fmt.Errorf("%d results, want %d", len(got.Results), len(want.Results))
	}
	bound := got.Epsilon*mass*(1+1e-7) + 1e-9
	alpha := 2 * math.Log2(float64(targetR)+1)
	for j := range got.Results {
		exact := want.Results[j].Score
		if s := got.Results[j].Score; s < exact/alpha-bound || s > exact+bound {
			return fmt.Errorf("rank %d: approx score %g outside [%g, %g] (ε=%g M=%g)",
				j, s, exact/alpha-bound, exact+bound, got.Epsilon, mass)
		}
	}
	return nil
}

// scorer is the per-series read every serving stack offers.
type scorer interface {
	Score(id int, t1, t2 float64) (float64, error)
}

// unreadableAppends checks, after the writers have stopped and the
// memtables have drained, that every appended range reads back: for
// each touched series the stack's score over its appended range must
// equal the model's. It returns how many acknowledged appends sit on a
// series that fails the check — an acknowledged-but-lost append.
func unreadableAppends(sys scorer, m *model, recs []appendRec) (lost int, first error) {
	bad := make(map[int]bool)
	for id := range m.touched {
		s := m.ds.Series(tsdata.SeriesID(id))
		want := s.Range(m.baseEnd[id], s.End())
		got, err := sys.Score(id, m.baseEnd[id], s.End())
		if err == nil && math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			err = fmt.Errorf("score %g, want %g", got, want)
		}
		if err != nil {
			bad[id] = true
			if first == nil {
				first = fmt.Errorf("series %d appended range unreadable: %w", id, err)
			}
		}
	}
	for _, r := range recs {
		if bad[r.id] {
			lost++
		}
	}
	return lost, first
}
