package temporalrank

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"temporalrank/internal/qcache"
	"temporalrank/internal/topk"
)

// This file defines the unified query API: a first-class Query value
// describing *what* the caller wants (aggregate, k, interval, error
// tolerance) and the Querier interface implemented by every component
// that can answer one — the brute-force DB, every Index, the Planner,
// and the Cluster and RemoteCluster coordinators. Run is the only query
// entry point.

// Agg selects a Query's aggregate, the paper's operator family
// top-k(t1, t2, agg).
type Agg string

const (
	// AggSum ranks by σ_i(t1,t2) = ∫_{t1}^{t2} g_i — the core operator.
	AggSum Agg = "sum"
	// AggAvg ranks by σ_i(t1,t2)/(t2−t1); same order as sum, rescaled
	// scores (§4).
	AggAvg Agg = "avg"
	// AggInstant ranks by g_i(t); T1 carries the instant t.
	AggInstant Agg = "instant"
)

func (a Agg) valid() bool {
	switch a {
	case AggSum, AggAvg, AggInstant:
		return true
	}
	return false
}

// Query is one declarative top-k request. The zero value of Agg means
// AggSum, so Query{K: 10, T1: 0, T2: 100} is the paper's core query.
type Query struct {
	// Agg is the aggregate; empty defaults to AggSum.
	Agg Agg
	// K is the number of objects wanted (>= 1).
	K int
	// T1 and T2 bound the query interval [t1, t2]. For AggInstant, T1
	// carries the instant t and T2 is ignored.
	T1, T2 float64
	// MaxEpsilon is the largest acceptable (ε,α) error parameter. 0
	// demands an exact answer; a positive value lets the Planner route
	// to any approximate index built with ε <= MaxEpsilon. Ignored by
	// direct DB/Index execution, which always answer with their own
	// guarantee (reported in Answer).
	MaxEpsilon float64
}

// SumQuery builds the core aggregate query top-k(t1, t2, sum).
func SumQuery(k int, t1, t2 float64) Query { return Query{Agg: AggSum, K: k, T1: t1, T2: t2} }

// AvgQuery builds top-k(t1, t2, avg).
func AvgQuery(k int, t1, t2 float64) Query { return Query{Agg: AggAvg, K: k, T1: t1, T2: t2} }

// InstantQuery builds the instant query top-k(t).
func InstantQuery(k int, t float64) Query { return Query{Agg: AggInstant, K: k, T1: t} }

// withDefaults resolves the zero Agg to AggSum.
func (q Query) withDefaults() Query {
	if q.Agg == "" {
		q.Agg = AggSum
	}
	return q
}

// aggTag is the cache key's one-byte aggregate discriminator.
func (a Agg) aggTag() byte {
	switch a {
	case AggAvg:
		return 1
	case AggInstant:
		return 2
	default:
		return 0
	}
}

// queryKey is a Query's canonical fixed-size cache identity. It is a
// comparable value type, so result-cache lookups hash it without
// allocating — the cached read path is zero-alloc end to end.
type queryKey [33]byte

// cacheKey returns the query's canonical identity for result caching:
// two queries share a key exactly when every field that can influence
// the answer (aggregate, k, interval, tolerance — the last steers the
// Planner's routing, hence the reported method/ε) is byte-identical
// after canonicalization. The zero Agg collapses onto AggSum and an
// instant query's ignored T2 is canonicalized away, so spelling
// variants of the same request hit the same entry.
func (q Query) cacheKey() queryKey {
	q = q.withDefaults()
	if q.Agg == AggInstant {
		q.T2 = 0
	}
	var b queryKey
	b[0] = q.Agg.aggTag()
	binary.LittleEndian.PutUint64(b[1:], uint64(q.K))
	binary.LittleEndian.PutUint64(b[9:], math.Float64bits(q.T1))
	binary.LittleEndian.PutUint64(b[17:], math.Float64bits(q.T2))
	binary.LittleEndian.PutUint64(b[25:], math.Float64bits(q.MaxEpsilon))
	return b
}

// scope returns the query's invalidation footprint for scoped result
// caching: all series over the query window (an instant query stabs a
// single point). An append overlapping this footprint can change the
// answer; one outside it cannot.
func (q Query) scope() qcache.Scope {
	if q.Agg == AggInstant {
		return qcache.Scope{Series: -1, T1: q.T1, T2: q.T1}
	}
	return qcache.Scope{Series: -1, T1: q.T1, T2: q.T2}
}

// Validate checks the query's shape. Interval problems wrap
// ErrBadInterval so callers can classify them with errors.Is.
func (q Query) Validate() error {
	q = q.withDefaults()
	if !q.Agg.valid() {
		return fmt.Errorf("temporalrank: unknown aggregate %q", q.Agg)
	}
	if q.K < 1 {
		return fmt.Errorf("temporalrank: k must be >= 1, got %d", q.K)
	}
	if math.IsNaN(q.T1) || math.IsInf(q.T1, 0) {
		return fmt.Errorf("temporalrank: %w: non-finite t1 %g", ErrBadInterval, q.T1)
	}
	if q.Agg == AggInstant {
		return nil
	}
	if math.IsNaN(q.T2) || math.IsInf(q.T2, 0) {
		return fmt.Errorf("temporalrank: %w: non-finite t2 %g", ErrBadInterval, q.T2)
	}
	if q.T2 < q.T1 {
		return fmt.Errorf("temporalrank: %w: inverted [%g,%g]", ErrBadInterval, q.T1, q.T2)
	}
	if q.Agg == AggAvg && q.T2 == q.T1 {
		return fmt.Errorf("temporalrank: %w: avg needs t2 > t1, got [%g,%g]", ErrBadInterval, q.T1, q.T2)
	}
	return nil
}

// MethodReference identifies answers computed by brute force over the
// in-memory data (DB.Run) rather than through one of the paper's
// indexes. It is always exact.
const MethodReference Method = "REFERENCE"

// Answer is one executed Query.
//
// When a result cache is enabled (Planner.EnableResultCache,
// ClusterOptions.ResultCache), identical queries at the same data
// version share one Answer value: Results aliases the cached slice and
// must be treated as read-only, and Latency/IOs describe the run that
// populated the cache, not the (near-free) cached retrieval.
type Answer struct {
	// Results are the ranked objects, best first.
	Results []Result
	// Method is the index method that produced the answer;
	// MethodReference when the brute-force DB answered.
	Method Method
	// Exact reports whether the answer carries no approximation error.
	Exact bool
	// Epsilon is the (ε,α) error parameter of the answering structure;
	// 0 when Exact.
	Epsilon float64
	// Latency is the wall time of the computation alone (queueing in a
	// worker pool excluded).
	Latency time.Duration
	// IOs is the page reads the query's index calls made; 0 for the
	// in-memory brute force. It counts page views on the index's
	// device: on an in-memory index and on an on-disk one alike (an
	// on-disk index views its file's mapping in place, so the count is
	// of logical page accesses, not of disk reads), and only the misses
	// behind a CacheBlocks pool. Each call counts its own views and adds
	// them to the device's total when it ends, so the count is this
	// query's alone however many queries share the device. A Cluster
	// answer's IOs is the sum of its shards'.
	IOs uint64
}

// Querier is anything that can answer a Query: the brute-force DB,
// every Index, the Planner, Cluster and RemoteCluster. Run respects ctx —
// cancellation and deadlines abort promptly with ctx.Err().
type Querier interface {
	Run(ctx context.Context, q Query) (Answer, error)
}

// Compile-time checks: all query paths satisfy the one interface.
var (
	_ Querier = (*DB)(nil)
	_ Querier = (*Index)(nil)
	_ Querier = (*Planner)(nil)
	_ Querier = (*Cluster)(nil)
	_ Querier = (*RemoteCluster)(nil)
)

// ctxCheckStride bounds how many series a brute-force scan processes
// between context checks.
const ctxCheckStride = 1024

// Run implements Querier by brute force over the in-memory data — the
// exact reference every index is measured against. Long scans poll ctx
// every ctxCheckStride objects, so cancellation aborts mid-scan.
func (db *DB) Run(ctx context.Context, q Query) (Answer, error) {
	q = q.withDefaults()
	if err := q.Validate(); err != nil {
		return Answer{}, err
	}
	start := time.Now()
	db.mu.RLock()
	c := topk.GetCollector(q.K)
	defer c.Release()
	for i, s := range db.ds.AllSeries() {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				db.mu.RUnlock()
				return Answer{}, err
			}
		}
		switch q.Agg {
		case AggInstant:
			c.Add(s.ID, s.At(q.T1))
		default:
			c.Add(s.ID, s.Range(q.T1, q.T2))
		}
	}
	db.mu.RUnlock()
	res := toResults(c.Results())
	if q.Agg == AggAvg {
		rescaleAvg(res, q.T1, q.T2)
	}
	return Answer{
		Results: res,
		Method:  MethodReference,
		Exact:   true,
		Latency: time.Since(start),
	}, nil
}

// Run implements Querier through the index. The answer carries the
// index's own guarantee: exact methods (and instant queries, which are
// answered exactly regardless of method) report Exact; approximate
// methods report their ε. MaxEpsilon is a routing hint for the
// Planner and is not re-checked here — calling Run on a specific
// index is the "I chose this structure" path.
func (ix *Index) Run(ctx context.Context, q Query) (Answer, error) {
	q = q.withDefaults()
	if err := q.Validate(); err != nil {
		return Answer{}, err
	}
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	start := time.Now()
	var (
		res []Result
		ios uint64
		err error
	)
	switch q.Agg {
	case AggSum:
		res, ios, err = ix.topK(q.K, q.T1, q.T2)
	case AggAvg:
		res, ios, err = ix.topKAvg(q.K, q.T1, q.T2)
	case AggInstant:
		res, ios, err = ix.instantTopK(q.K, q.T1)
	}
	if err != nil {
		return Answer{}, err
	}
	elapsed := time.Since(start)
	exact := !ix.Method().IsApprox() || q.Agg == AggInstant
	var eps float64
	if !exact {
		eps = ix.Epsilon()
	}
	return Answer{
		Results: res,
		Method:  ix.Method(),
		Exact:   exact,
		Epsilon: eps,
		Latency: elapsed,
		IOs:     ios,
	}, nil
}

// rescaleAvg converts sum scores into averages over [t1, t2].
func rescaleAvg(res []Result, t1, t2 float64) {
	width := t2 - t1
	for i := range res {
		res[i].Score /= width
	}
}
