// Package exact implements the paper's three exact methods for
// aggregate top-k queries on temporal data (§2):
//
//   - Exact1: one B+-tree over all N segments keyed by left endpoint;
//     a query scans every segment overlapping [t1,t2] maintaining m
//     running sums. O(log_B N + Σq_i/B) IOs, degrading to O(N/B).
//   - Exact2: the paper's forest of m per-object prefix-sum indexes,
//     stored as one packed run of fixed-size slots per object (key
//     t_{i,ℓ}, the segment, and σ_i(I_{i,ℓ})) across shared pages, with
//     an in-memory directory of each run's page-boundary keys. Scoring
//     one object views the one or two pages holding the ceilings of t1
//     and t2 and applies Eq. (2): at most 2 IOs per object, 2m per query.
//   - Exact3: a single external interval tree over the I⁻ interval
//     decomposition of all objects; a query is two stabbing queries.
//     O(log_B N + m/B) IOs — the paper's best exact method.
//
// All three return identical answers; they differ only in IO behaviour.
package exact

import (
	"encoding/binary"
	"fmt"
	"math"

	"temporalrank/internal/blockio"
	"temporalrank/internal/topk"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

// Method is the common behaviour of the exact indexes (and is also
// satisfied by the approximate indexes in internal/approx, which lets
// the experiment harness treat all eight methods uniformly).
type Method interface {
	// Name returns the paper's name for the method (e.g. "EXACT3").
	Name() string
	// TopK answers top-k(t1,t2,sum): the k objects with the largest
	// σ_i(t1,t2), ordered by descending aggregate score.
	TopK(k int, t1, t2 float64) ([]topk.Item, error)
	// TopKIOs is TopK that also returns the call's IOs: the page reads
	// of its traversal, which it charges to a blockio.IOCount of its own
	// and adds to the device's total once, when it ends. The count is
	// the call's alone under any concurrency.
	TopKIOs(k int, t1, t2 float64) ([]topk.Item, uint64, error)
	// Score returns the method's estimate of σ_i(t1,t2) for one object
	// (exact methods return the exact value). Like TopK, it adds its page
	// reads to the device's total once, when it ends.
	Score(id tsdata.SeriesID, t1, t2 float64) (float64, error)
	// Device exposes the index's block device for IO accounting.
	Device() blockio.Device
	// IndexPages returns the number of live pages the index occupies.
	IndexPages() int
}

func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
func getF64(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func putSeriesID(b []byte, id tsdata.SeriesID) { binary.LittleEndian.PutUint32(b, uint32(id)) }
func getSeriesID(b []byte) tsdata.SeriesID     { return tsdata.SeriesID(binary.LittleEndian.Uint32(b)) }

func validateQuery(t1, t2 float64) error {
	if math.IsNaN(t1) || math.IsNaN(t2) || math.IsInf(t1, 0) || math.IsInf(t2, 0) {
		return fmt.Errorf("exact: %w: non-finite [%g,%g]", trerr.ErrBadInterval, t1, t2)
	}
	if t2 < t1 {
		return fmt.Errorf("exact: %w: inverted [%g,%g]", trerr.ErrBadInterval, t1, t2)
	}
	return nil
}
