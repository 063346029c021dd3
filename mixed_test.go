package temporalrank_test

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"temporalrank"
)

// This file is the randomized mixed-workload acceptance suite for the
// write path: interleaved appends and queries, across every index
// method, must answer exactly like a brute-force DB fed the same
// appends — at every step, with compactions forced mid-stream. Run
// under -race.

// mixedState drives one interleaved workload: it owns the reference DB
// (brute force over the same appends) and the per-series frontier so
// generated appends always land past each series' end.
type mixedState struct {
	t   *testing.T
	rng *rand.Rand
	ref *temporalrank.DB
	// end/val track each series' frontier vertex, mirrored on every
	// successful append.
	end []float64
	val []float64
}

func newMixedState(t *testing.T, inputs []temporalrank.SeriesInput, seed int64) *mixedState {
	t.Helper()
	ref, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	s := &mixedState{
		t:   t,
		rng: rand.New(rand.NewSource(seed)),
		ref: ref,
		end: make([]float64, len(inputs)),
		val: make([]float64, len(inputs)),
	}
	for i, in := range inputs {
		s.end[i] = in.Times[len(in.Times)-1]
		s.val[i] = in.Values[len(in.Values)-1]
	}
	return s
}

// appender is the write half of a system under test (Planner or
// Cluster).
type appender interface {
	Append(id int, t, v float64) error
}

// step applies one random append to both the system under test and the
// reference; occasionally it deliberately violates the frontier rule
// and demands that both sides reject it identically.
func (s *mixedState) append(sys appender, label string) {
	s.t.Helper()
	id := s.rng.Intn(len(s.end))
	if s.rng.Intn(12) == 0 {
		// Bad append: at or before the frontier. Both sides must refuse,
		// and refuse without mutating anything.
		bad := s.end[id] - s.rng.Float64()
		if err := sys.Append(id, bad, 1); err == nil {
			s.t.Fatalf("%s: append(%d, %g) behind frontier %g accepted", label, id, bad, s.end[id])
		}
		if err := s.ref.Append(id, bad, 1); err == nil {
			s.t.Fatalf("reference accepted append(%d, %g) behind frontier %g", id, bad, s.end[id])
		}
		return
	}
	tt := s.end[id] + 0.1 + s.rng.Float64()*4
	v := s.val[id] + s.rng.NormFloat64()*3
	if err := sys.Append(id, tt, v); err != nil {
		s.t.Fatalf("%s: append(%d, %g, %g): %v", label, id, tt, v, err)
	}
	if err := s.ref.Append(id, tt, v); err != nil {
		s.t.Fatalf("reference append(%d, %g, %g): %v", id, tt, v, err)
	}
	s.end[id], s.val[id] = tt, v
}

// query builds one random query spanning data both in the base and at
// the appended frontier.
func (s *mixedState) query(kmax int, maxEps float64) temporalrank.Query {
	span := s.ref.End() - s.ref.Start()
	t1 := s.ref.Start() + s.rng.Float64()*span*0.9
	t2 := t1 + s.rng.Float64()*(s.ref.End()-t1)
	k := 1 + s.rng.Intn(kmax)
	var q temporalrank.Query
	switch s.rng.Intn(3) {
	case 0:
		q = temporalrank.SumQuery(k, t1, t2)
	case 1:
		q = temporalrank.AvgQuery(k, t1, t2+1e-3)
	default:
		q = temporalrank.InstantQuery(k, t1)
	}
	q.MaxEpsilon = maxEps
	return q
}

// checkExact compares an exact answer against the brute-force
// reference rank by rank. Scores use a relative tolerance: the merged
// read path and the prefix-sum indexes accumulate in different orders
// than the reference scan, so last-ulp noise is expected; anything
// larger is a real divergence. Ties (equal scores, different IDs) pass
// on score alone.
func checkExact(t *testing.T, label string, got, want temporalrank.Answer) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for j := range want.Results {
		g, w := got.Results[j].Score, want.Results[j].Score
		scale := math.Max(1, math.Abs(w))
		if math.Abs(g-w) > 1e-9*scale {
			t.Fatalf("%s rank %d: score %g (id %d), want %g (id %d)",
				label, j, g, got.Results[j].ID, w, want.Results[j].ID)
		}
	}
}

// checkApprox validates an approximate answer with the paper's (ε,α)
// per-rank bound: σ̃_j <= σ_j + εM and σ̃_j >= σ_j/α − εM, with
// α = 2·log₂(r+1) for the APPX2 family built with TargetR = r.
func checkApprox(t *testing.T, label string, got, want temporalrank.Answer, mass float64, targetR int) {
	t.Helper()
	bound := got.Epsilon*mass*(1+1e-7) + 1e-9
	alpha := 2 * math.Log2(float64(targetR)+1)
	for j := range got.Results {
		if j >= len(want.Results) {
			break
		}
		exact := want.Results[j].Score
		lo := exact/alpha - bound
		hi := exact + bound
		if s := got.Results[j].Score; s < lo || s > hi {
			t.Fatalf("%s rank %d: approx score %g outside [%g, %g] (ε=%g M=%g)",
				label, j, s, lo, hi, got.Epsilon, mass)
		}
	}
}

// TestMixedWorkloadEquivalence interleaves appends and queries on a
// Planner over every index method and demands brute-force-equivalent
// answers at every step. Compactions are forced at random points —
// including concurrently with the query they race.
func TestMixedWorkloadEquivalence(t *testing.T) {
	const targetR = 60
	methods := []struct {
		m      temporalrank.Method
		approx bool
	}{
		{temporalrank.MethodExact1, false},
		{temporalrank.MethodExact2, false},
		{temporalrank.MethodExact3, false},
		{temporalrank.MethodAppx1B, true},
		{temporalrank.MethodAppx2B, true},
		{temporalrank.MethodAppx1, true},
		{temporalrank.MethodAppx2, true},
		{temporalrank.MethodAppx2P, true},
	}
	ctx := context.Background()
	for _, mc := range methods {
		name := string(mc.m) + "/memtable"
		t.Run(name, func(t *testing.T) {
			inputs := clusterInputs(t, 40, 20, 97)
			st := newMixedState(t, inputs, int64(len(name))*1009+7)
			db, err := temporalrank.NewDB(inputs)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := db.BuildIndex(temporalrank.Options{Method: mc.m, TargetR: targetR, KMax: 24})
			if err != nil {
				t.Fatal(err)
			}
			p, err := temporalrank.NewPlanner(db, ix)
			if err != nil {
				t.Fatal(err)
			}
			p.EnableResultCache(64)
			if err := p.EnableMemtable(temporalrank.MemtableOptions{DisableAutoCompact: true}); err != nil {
				t.Fatal(err)
			}
			maxEps := 0.0
			if mc.approx {
				maxEps = 1.0
			}
			for step := 0; step < 60; step++ {
				if st.rng.Intn(5) < 3 {
					st.append(p, name)
					continue
				}
				q := st.query(12, maxEps)
				var wg sync.WaitGroup
				if st.rng.Intn(4) == 0 {
					// Race a compaction against this query: the reader must
					// keep answering from its pinned generation.
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := p.Compact(ctx); err != nil {
							t.Error(err)
						}
					}()
				}
				got, err := p.Run(ctx, q)
				wg.Wait()
				if err != nil {
					t.Fatalf("step %d %s: %v", step, q.Agg, err)
				}
				want, err := st.ref.Run(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if got.Exact {
					checkExact(t, name, got, want)
				} else {
					checkApprox(t, name, got, want, st.ref.Snapshot().M(), targetR)
				}
			}
			// Drain and re-verify: post-compaction answers must agree too.
			if err := p.Compact(ctx); err != nil {
				t.Fatal(err)
			}
			q := st.query(12, maxEps)
			got, err := p.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := st.ref.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Exact {
				checkExact(t, name+"/drained", got, want)
			} else {
				checkApprox(t, name+"/drained", got, want, st.ref.Snapshot().M(), targetR)
			}
			stats, ok := p.MemtableStats()
			if !ok || stats.ActiveSegments != 0 || stats.FrozenSegments != 0 {
				t.Fatalf("memtable not drained after Compact: %+v (ok=%v)", stats, ok)
			}
		})
	}
}

// TestMixedClusterEquivalence runs the interleaved workload through a
// Cluster — shard counts 1 and 8 — against the unpartitioned
// brute-force reference. "direct" leaves ClusterOptions.Memtable nil:
// the shards keep the default memtable, whose flush threshold this
// workload never reaches, so every answer merges base and delta.
// "memtable" sets a tiny threshold so background compactions trigger
// repeatedly mid-workload on their own.
func TestMixedClusterEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 8} {
		for _, memtable := range []bool{false, true} {
			name := "shards="
			name += string(rune('0' + shards))
			if memtable {
				name += "/memtable"
			} else {
				name += "/direct"
			}
			t.Run(name, func(t *testing.T) {
				inputs := clusterInputs(t, 48, 18, 131)
				st := newMixedState(t, inputs, int64(shards)*811+19)
				opts := temporalrank.ClusterOptions{
					Shards:      shards,
					Indexes:     []temporalrank.Options{{Method: temporalrank.MethodExact3}},
					ResultCache: 128,
				}
				if memtable {
					opts.Memtable = &temporalrank.MemtableOptions{FlushSegments: 16}
				}
				c, err := temporalrank.NewCluster(inputs, opts)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 90; step++ {
					if st.rng.Intn(5) < 3 {
						st.append(c, name)
						continue
					}
					q := st.query(10, 0)
					got, err := c.Run(ctx, q)
					if err != nil {
						t.Fatalf("step %d %s: %v", step, q.Agg, err)
					}
					want, err := st.ref.Run(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Exact {
						t.Fatalf("step %d: exact-index cluster answered approximately: %+v", step, got)
					}
					checkExact(t, name, got, want)
				}
			})
		}
	}
}

// TestMixedConcurrentIngest hammers one memtable-backed planner from
// concurrent writers, readers, and an explicit compaction loop — the
// -race exercise for the generation swap, the memtable's lock-free
// reads, and the scoped cache validation. Answers are checked for well-formedness
// (the interleaving is nondeterministic, so exact equivalence is the
// previous tests' job).
func TestMixedConcurrentIngest(t *testing.T) {
	inputs := clusterInputs(t, 32, 15, 173)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := temporalrank.NewPlanner(db, ix)
	if err != nil {
		t.Fatal(err)
	}
	p.EnableResultCache(32)
	if err := p.EnableMemtable(temporalrank.MemtableOptions{FlushSegments: 64}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	start, end := db.Start(), db.End()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tt := end
			for i := 0; i < 300; i++ {
				tt += 0.5
				id := (w*16 + i) % 32
				// Both writers may race on one series; losing the race is a
				// legitimate behind-frontier rejection, not a failure.
				_ = p.Append(id, tt, float64(i%7))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 41))
			for i := 0; i < 150; i++ {
				t1 := start + rng.Float64()*(end-start)
				q := temporalrank.SumQuery(1+rng.Intn(8), t1, t1+rng.Float64()*(end+150-t1))
				ans, err := p.Run(ctx, q)
				if err != nil {
					t.Error(err)
					return
				}
				if len(ans.Results) == 0 || len(ans.Results) > q.K {
					t.Errorf("malformed answer: %d results for k=%d", len(ans.Results), q.K)
					return
				}
				for j := 1; j < len(ans.Results); j++ {
					if ans.Results[j].Score > ans.Results[j-1].Score {
						t.Errorf("results not ranked at %d: %v", j, ans.Results)
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := p.Compact(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := p.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	stats, ok := p.MemtableStats()
	if !ok {
		t.Fatal("memtable stats unavailable")
	}
	if stats.ActiveSegments != 0 || stats.FrozenSegments != 0 {
		t.Fatalf("memtable not drained: %+v", stats)
	}
}
