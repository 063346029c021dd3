package temporalrank

import (
	"fmt"

	"temporalrank/internal/exact"
	"temporalrank/internal/pla"
	"temporalrank/internal/topk"
	"temporalrank/internal/tsdata"
)

// This file carries the §4 extensions of the paper beyond the core
// top-k(t1,t2,sum) operator: average aggregation, instant top-k, and
// the piecewise-linear segmentation preprocessing for raw samples.

// Sample is one raw (time, value) reading of an object before
// segmentation.
type Sample = pla.Sample

// SegmentationMethod selects how raw samples are converted to the
// piecewise-linear representation the indexes consume.
type SegmentationMethod int

const (
	// SegmentConnect keeps every sample as a vertex (what the paper
	// does with Temp and Meme: "we connect all consecutive readings").
	SegmentConnect SegmentationMethod = iota
	// SegmentSlidingWindow applies online greedy segmentation with the
	// given L∞ error budget.
	SegmentSlidingWindow
	// SegmentBottomUp applies offline bottom-up segmentation with the
	// given L∞ error budget (adaptive; fewest segments in practice).
	SegmentBottomUp
)

// NewDBFromSamples builds a database from raw per-object samples,
// applying the chosen segmentation. errBudget is the maximum vertical
// deviation of any dropped sample from its covering segment; it is
// ignored by SegmentConnect. An L∞ budget of δ perturbs any aggregate
// σ_i(t1,t2) by at most δ·(t2−t1).
func NewDBFromSamples(objects [][]Sample, method SegmentationMethod, errBudget float64) (*DB, error) {
	inputs, err := segmentObjects(objects, method, errBudget)
	if err != nil {
		return nil, err
	}
	series := make([]*tsdata.Series, len(inputs))
	for i, in := range inputs {
		s, err := tsdata.NewSeries(tsdata.SeriesID(i), in.Times, in.Values)
		if err != nil {
			return nil, fmt.Errorf("temporalrank: object %d: %w", i, err)
		}
		series[i] = s
	}
	ds, err := tsdata.NewDataset(series)
	if err != nil {
		return nil, err
	}
	return &DB{ds: ds}, nil
}

// segmentObjects converts raw per-object samples to piecewise-linear
// SeriesInput via the chosen segmentation — the shared front half of
// NewDBFromSamples and NewClusterFromSamples.
func segmentObjects(objects [][]Sample, method SegmentationMethod, errBudget float64) ([]SeriesInput, error) {
	if len(objects) == 0 {
		return nil, fmt.Errorf("temporalrank: no objects given: %w", ErrNoInput)
	}
	inputs := make([]SeriesInput, len(objects))
	for i, samples := range objects {
		var (
			res pla.Result
			err error
		)
		switch method {
		case SegmentConnect:
			res.Times = make([]float64, len(samples))
			res.Values = make([]float64, len(samples))
			for j, s := range samples {
				res.Times[j] = s.T
				res.Values[j] = s.V
			}
		case SegmentSlidingWindow:
			res, err = pla.SlidingWindow(samples, errBudget)
		case SegmentBottomUp:
			res, err = pla.BottomUp(samples, errBudget)
		default:
			return nil, fmt.Errorf("temporalrank: unknown segmentation method %d", method)
		}
		if err != nil {
			return nil, fmt.Errorf("temporalrank: object %d: %w", i, err)
		}
		inputs[i] = SeriesInput{Times: res.Times, Values: res.Values}
	}
	return inputs, nil
}

// topKAvg ranks by the average score avg_i(t1,t2) = σ_i(t1,t2)/(t2−t1).
// Since the divisor is shared, the ranking equals the sum ranking (§4:
// sum "automatically implies support for the avg aggregation"); only
// the reported scores are rescaled.
func (ix *Index) topKAvg(k int, t1, t2 float64) ([]Result, uint64, error) {
	if t2 <= t1 {
		return nil, 0, fmt.Errorf("temporalrank: %w: avg needs t2 > t1, got [%g,%g]", ErrBadInterval, t1, t2)
	}
	res, ios, err := ix.topK(k, t1, t2)
	if err != nil {
		return nil, ios, err
	}
	rescaleAvg(res, t1, t2)
	return res, ios, nil
}

// instantTopK answers the instant query top-k(t): the k objects with
// the largest g_i(t), with the call's IOs. Supported natively by EXACT3
// (one stabbing query); other methods fall back to the in-memory data,
// since the paper treats instants as its predecessor's problem.
func (ix *Index) instantTopK(k int, t float64) ([]Result, uint64, error) {
	e3, ok := ix.m.(*exact.Exact3)
	if !ok {
		return ix.db.instantTopK(k, t), 0, nil
	}
	items, ios, err := e3.InstantTopK(k, t)
	if err != nil {
		return nil, ios, err
	}
	return toResults(items), ios, nil
}

// instantTopK computes the instant query against the in-memory data.
func (db *DB) instantTopK(k int, t float64) []Result {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c := topk.GetCollector(k)
	defer c.Release()
	for _, s := range db.ds.AllSeries() {
		c.Add(s.ID, s.At(t))
	}
	return toResults(c.Results())
}
