package temporalrank

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"temporalrank/internal/qcache"
)

// Planner holds several indexes built over one DB and routes each
// Query to the cheapest structure that satisfies it: exact methods
// when the query demands exactness (MaxEpsilon == 0), approximate
// methods whose ε fits the query's tolerance otherwise, and the
// brute-force DB as the always-correct fallback when no index
// qualifies. The caller states *what* it wants; the Planner chooses
// *how*.
//
//	exact3, _ := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
//	appx2, _ := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodAppx2P})
//	p, _ := temporalrank.NewPlanner(db, exact3, appx2)
//	ans, _ := p.Run(ctx, temporalrank.Query{K: 10, T1: 50, T2: 120, MaxEpsilon: 0.05})
//
// The Planner is also the stack's one write path (see ingest.go):
// Append lands in an in-memory delta layer, queries merge the delta
// with the immutable base — the DB and indexes given to NewPlanner,
// until a background compaction replaces them wholesale with a new
// generation built over the grown data.
//
// Planner is safe for concurrent use.
type Planner struct {
	// ingest is the write path and the read stack's current generation;
	// set by NewPlanner, never replaced.
	ingest *ingestState

	// cache is the result cache, nil when none is attached.
	cache atomic.Pointer[qcache.Cache[queryKey, Answer]]
}

// CacheStats summarizes a result cache's effectiveness: Hits were
// served from a stored answer, Misses executed the query, and Coalesced
// callers joined another caller's identical in-flight query instead of
// executing their own.
type CacheStats struct {
	Hits, Misses, Coalesced uint64
}

// HitRatio returns Hits / (Hits + Misses + Coalesced), or 0 before any
// lookup. Coalesced lookups count toward the denominator but not as
// hits — they avoided an index run but still had to wait for one.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// EnableResultCache attaches a bounded result cache to Run: up to
// entries distinct (query, data-version) answers are kept, identical
// concurrent queries coalesce into one index run, and every successful
// Append bumps the version so a cached pre-append answer is never
// served post-append. entries <= 0 detaches the cache. Existing entries
// are discarded when called again.
func (p *Planner) EnableResultCache(entries int) {
	if entries <= 0 {
		p.cache.Store(nil)
		return
	}
	p.cache.Store(qcache.New[queryKey, Answer](entries))
}

// CacheStats returns the result cache's counters; ok is false when no
// cache is attached.
func (p *Planner) CacheStats() (stats CacheStats, ok bool) {
	cache := p.cache.Load()
	if cache == nil {
		return CacheStats{}, false
	}
	s := cache.Stats()
	return CacheStats{Hits: s.Hits, Misses: s.Misses, Coalesced: s.Coalesced}, true
}

// NewPlanner assembles a planner over db and any number of indexes
// built from it, in routing-preference order (the first is the primary
// index Score answers from). With no indexes every query falls back to
// the brute-force reference. The planner starts with an empty memtable
// under default options (see EnableMemtable).
func NewPlanner(db *DB, indexes ...*Index) (*Planner, error) {
	if db == nil {
		return nil, fmt.Errorf("temporalrank: planner needs a DB: %w", ErrBadConfig)
	}
	for _, ix := range indexes {
		if ix == nil {
			return nil, fmt.Errorf("temporalrank: planner: nil index: %w", ErrBadConfig)
		}
		if ix.db != db {
			return nil, fmt.Errorf("temporalrank: planner: index %s built over a different DB: %w", ix.Method(), ErrBadConfig)
		}
	}
	return &Planner{ingest: newIngestState(db, slices.Clone(indexes))}, nil
}

// DB returns the current generation's database (the exact fallback
// path): the DB given to NewPlanner until the first compaction, then
// the compacted one. It reflects drained appends only.
func (p *Planner) DB() *DB { return p.stack().db }

// Indexes returns a snapshot of the current generation's indexes.
func (p *Planner) Indexes() []*Index {
	st := p.stack()
	out := make([]*Index, len(st.indexes))
	copy(out, st.indexes)
	return out
}

// stack returns the current generation's base: the read stack queries
// route over.
func (p *Planner) stack() baseStack { return p.ingest.layer.Load().Base }

// Plan picks the Querier that will answer q, without running it:
//
//   - AggInstant goes to an EXACT3 index (native stabbing query) when
//     one is registered, else to the DB scan — every other method
//     would fall back to that scan anyway.
//   - MaxEpsilon > 0 routes to the approximate class: among indexes
//     with ε <= MaxEpsilon and k <= KMax, the cheapest by EstimateIOs
//     wins. The class preference is deliberate — an approximate
//     index's query cost is independent of N, which is exactly why the
//     caller declared a tolerance.
//   - MaxEpsilon == 0 (or no qualifying approximate index) routes to
//     the cheapest exact index.
//   - With no qualifying index at all (none registered, or purely
//     approximate indexes under MaxEpsilon == 0, or k beyond every
//     KMax) the brute-force DB answers exactly.
func (p *Planner) Plan(q Query) Querier {
	q = q.withDefaults()
	return planStack(p.stack(), q)
}

// planStack is Plan over an explicit read stack: a pinned generation's
// base.
func planStack(st baseStack, q Query) Querier {
	if q.Agg == AggInstant {
		for _, ix := range st.indexes {
			if ix.Method() == MethodExact3 {
				return ix
			}
		}
		return st.db
	}

	if q.MaxEpsilon > 0 {
		if ix := cheapestIn(st, q, true); ix != nil {
			return ix
		}
	}
	if ix := cheapestIn(st, q, false); ix != nil {
		return ix
	}
	return st.db
}

// cheapestIn returns the lowest-cost qualifying index of one class
// (approximate or exact) in the stack, or nil.
func cheapestIn(st baseStack, q Query, wantApprox bool) *Index {
	var (
		best     *Index
		bestCost float64
	)
	for _, ix := range st.indexes {
		if ix.Method().IsApprox() != wantApprox {
			continue
		}
		if wantApprox {
			if ix.Epsilon() > q.MaxEpsilon {
				continue
			}
			if km := ix.KMax(); km > 0 && q.K > km {
				continue
			}
		}
		if cost := estimateIOs(st.db, ix, q); best == nil || cost < bestCost {
			best, bestCost = ix, cost
		}
	}
	return best
}

// Run implements Querier: validate, consult the result cache (when one
// is attached), route, execute.
//
// Cache entries are validated against the planner's append journal
// with the query's (series, time-range) scope: an entry is served
// while no append recorded since it was stored overlaps the query
// window, so a writer appending at the frontier no longer evicts
// answers about the past. The journal versions are snapshotted before
// the query executes, so an append landing mid-run at worst wastes the
// stored entry (invalidated on the next lookup); it can never cause a
// stale answer.
func (p *Planner) Run(ctx context.Context, q Query) (Answer, error) {
	q = q.withDefaults()
	if err := q.Validate(); err != nil {
		return Answer{}, err
	}
	cache := p.cache.Load()
	if cache == nil {
		return p.execute(ctx, q)
	}
	ans, _, err := cache.DoScoped(ctx, q.cacheKey(), p.ingest.journals, q.scope(), func() (Answer, error) {
		return p.execute(ctx, q)
	})
	return ans, err
}

// EstimateIOs instantiates the paper's asymptotic per-query IO costs
// with the dataset's actual N, m and the index's block size, r and k —
// the planner's cost model. The estimates are comparable across
// methods, not predictions of exact counts.
//
//	EXACT1   log_B N + N/B      (leaf sweep)
//	EXACT2   Σ log_B n_i        (two lookups per object)
//	EXACT3   log_B N + m/B      (two stabbing queries)
//	APPX1    k/B + log_B r      (one list lookup)
//	APPX2    k·log r·log_B k    (dyadic merge)
//	APPX2+   APPX2 + k·log r·log_B n̄ (exact rescoring lookups)
//
// EXACT2 and APPX2+ keep the forest's formulas although their per-object
// lookups now view one or two pages of a packed run (log_B n̄ is 1 at
// n̄ < B, so the terms still count one page per lookup). The formulas
// stay until the cost model is recalibrated against measured IOs.
func (p *Planner) EstimateIOs(ix *Index, q Query) float64 {
	return estimateIOs(ix.db, ix, q)
}

// estimateIOs is EstimateIOs against an explicit DB (the one the index
// was built over — each generation's indexes pair with that
// generation's db).
func estimateIOs(db *DB, ix *Index, q Query) float64 {
	var (
		n = float64(db.NumSegments())
		m = float64(db.NumSeries())
		k = float64(q.K)
	)
	// Entries are a few dozen bytes across all structures; B is the
	// fan-out / entries-per-block scale shared by every formula.
	b := float64(ix.m.Device().BlockSize()) / 32
	if b < 2 {
		b = 2
	}
	logB := func(x float64) float64 {
		if x < b {
			return 1
		}
		return math.Log(x) / math.Log(b)
	}
	navg := math.Max(n/math.Max(m, 1), 2)
	r := float64(ix.breakpoints())
	logR := math.Max(math.Log2(math.Max(r, 2)), 1)
	switch ix.Method() {
	case MethodExact1:
		return logB(n) + n/b
	case MethodExact2:
		return m * logB(navg)
	case MethodExact3:
		return logB(n) + m/b
	case MethodAppx1, MethodAppx1B:
		return k/b + logB(r)
	case MethodAppx2, MethodAppx2B:
		return k * logR * logB(math.Max(k, 2))
	case MethodAppx2P:
		return k*logR*logB(math.Max(k, 2)) + k*logR*logB(navg)
	default:
		return n / b
	}
}
