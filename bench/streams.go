package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sync/atomic"

	"temporalrank"
	"temporalrank/internal/tsdata"
)

// This file generates the benchmark's inputs. The data — the datasets
// and the fixed query templates over them — is generated from
// dataSeed, the same for every run, as the paper ranks fixed datasets
// under random queries. Every stream of operations (which windows are
// scanned, which templates are drawn when, which series are appended
// to) is a pure function of the run's seed. The program under test only
// ever sees what these generators produce.

// dataSeed generates the datasets and the templates. It is not the
// run's seed: index size, heap, precision and the number of sweeps the
// breakpoint bisection needs during set-up are properties of the data,
// and the driver judges a metric's repeatability across runs with
// different seeds. Were the data to change with the seed, the bounds on
// those metrics (0.5 % on precision) would be measuring the generator.
const dataSeed = 2012

// queryK is the k of every benchmark query.
const queryK = 20

// subSeed derives an independent generator seed for one named purpose,
// so adding a stream never shifts the values another stream draws.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(label))
	return int64(h.Sum64() >> 1)
}

func newRand(seed int64, label string) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, label)))
}

// op is one generated operation: a query, or an append of (id, t, v).
type op struct {
	isAppend bool
	// latest marks ingest-mixed's "latest window" queries, whose latency
	// is also reported on its own.
	latest bool
	q      temporalrank.Query
	id     int
	t, v   float64
}

// stream yields a client's operations in order.
type stream interface {
	next() op
}

// domain is the temporal extent queries are drawn from.
type domain struct {
	start, span float64
}

// window draws a window whose width is uniform between minFrac and
// maxFrac of the domain, placed uniformly inside it.
func (d domain) window(rng *rand.Rand, minFrac, maxFrac float64) (t1, t2 float64) {
	w := (minFrac + (maxFrac-minFrac)*rng.Float64()) * d.span
	t1 = d.start + rng.Float64()*(d.span-w)
	return t1, t1 + w
}

// scanStream draws never-repeating queries: 70 % sum, 20 % avg, 10 %
// instant, over a window of 1-40 % of the domain placed uniformly. The
// float endpoints make a repeat (and hence a result-cache hit)
// impossible in practice, which is the point of the scan workloads.
type scanStream struct {
	rng *rand.Rand
	dom domain
}

func (s *scanStream) next() op {
	t1, t2 := s.dom.window(s.rng, 0.01, 0.40)
	switch u := s.rng.Float64(); {
	case u < 0.7:
		return op{q: temporalrank.SumQuery(queryK, t1, t2)}
	case u < 0.9:
		return op{q: temporalrank.AvgQuery(queryK, t1, t2)}
	default:
		return op{q: temporalrank.InstantQuery(queryK, t1)}
	}
}

// makeTemplates builds n fixed query templates over dom. kind decides
// template i's aggregate and tolerance from its rank alone, so which
// kinds of query the popular ranks are (rank 0 is a sixth of all draws
// under Zipf 1.2) is stated by the workload, not drawn.
//
// Template windows span 2-40 % of the domain, not 1-40 %: an
// approximate index answers a window that falls between two consecutive
// breakpoints with no results at all (every approximate score there is
// zero, which its εM guarantee allows), and with r = 150 the widest
// breakpoint gap is about 0.8 % of the domain. Workloads are chosen so
// that no operation fails, so templates stay clear of that.
func makeTemplates(rng *rand.Rand, n int, dom domain, kind func(i int) (agg temporalrank.Agg, maxEps float64)) []temporalrank.Query {
	out := make([]temporalrank.Query, n)
	for i := range out {
		t1, t2 := dom.window(rng, 0.02, 0.40)
		agg, eps := kind(i)
		out[i] = temporalrank.Query{Agg: agg, K: queryK, T1: t1, T2: t2, MaxEpsilon: eps}
		if agg == temporalrank.AggInstant {
			out[i].T2 = 0
		}
	}
	return out
}

// zipfS is the skew of every template stream: with 4,096 templates and
// a 256-entry result cache it yields a hit ratio near 0.78.
const zipfS = 1.2

// templateStream draws templates by a seeded Zipf(zipfS) rank, rank 0
// being the most popular.
type templateStream struct {
	zipf      *rand.Zipf
	templates []temporalrank.Query
}

func newTemplateStream(rng *rand.Rand, templates []temporalrank.Query) *templateStream {
	return &templateStream{
		zipf:      rand.NewZipf(rng, zipfS, 1, uint64(len(templates)-1)),
		templates: templates,
	}
}

func (s *templateStream) next() op { return op{q: s.templates[s.zipf.Uint64()]} }

// uniformTemplates draws templates uniformly.
type uniformTemplates struct {
	rng       *rand.Rand
	templates []temporalrank.Query
}

func (s *uniformTemplates) next() op { return op{q: s.templates[s.rng.Intn(len(s.templates))]} }

// atomicFloat is a float64 that one goroutine stores and others load.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) load() float64   { return math.Float64frombits(a.bits.Load()) }
func (a *atomicFloat) store(v float64) { a.bits.Store(math.Float64bits(v)) }

// frontier tracks every series' end vertex as the harness extends it,
// so generated appends always land past the series' current end. A
// series is only ever advanced by the one stream that owns it.
type frontier struct {
	end, val []float64
	// step is the base data's mean segment length.
	step float64
	// latest is the largest acknowledged append time: where "latest
	// window" queries end.
	latest atomicFloat
}

// newFrontier returns the frontier of ds as generated.
func newFrontier(ds *tsdata.Dataset) *frontier {
	fr := &frontier{step: ds.Span() / ds.AvgSegments()}
	for _, s := range ds.AllSeries() {
		fr.end = append(fr.end, s.End())
		fr.val = append(fr.val, s.VertexValue(s.NumSegments()))
	}
	fr.latest.store(ds.End())
	return fr
}

// acknowledge records that an append ending at t was acknowledged. Two
// clients may race here; losing the race only leaves latest a step
// behind, which the next acknowledgement repairs.
func (f *frontier) acknowledge(t float64) {
	if t > f.latest.load() {
		f.latest.store(t)
	}
}

// appendStream extends series owned by one client: those with
// id % owners == owner. It models a sensor feed: there is one clock, a
// reading arrives for a uniformly picked series, and its vertex lies at
// the clock's current time (or just past the series' end, if that is
// later). The clock advances so that each series gains, on average, one
// segment per mean base segment length. So every series that has been
// appended to ends near "now", and a window ending at the frontier
// overlaps all of their memtable runs — how many that is depends on the
// time since the last compaction, not on the seed. The value
// random-walks from the previous one like the Temp generator's noise.
type appendStream struct {
	rng           *rand.Rand
	fr            *frontier
	owner, owners int
	// now is the feed's clock and tick its advance per append.
	now, tick float64
}

// newAppendStream starts a feed whose clock continues from the latest
// acknowledged append, so consecutive phases form one feed.
func newAppendStream(rng *rand.Rand, fr *frontier, owner, owners int) *appendStream {
	return &appendStream{
		rng: rng, fr: fr, owner: owner, owners: owners,
		now:  fr.latest.load(),
		tick: fr.step * float64(owners) / float64(len(fr.end)),
	}
}

func (s *appendStream) next() op {
	m := len(s.fr.end)
	id := s.rng.Intn((m-s.owner+s.owners-1)/s.owners)*s.owners + s.owner
	s.now += s.tick
	t := math.Max(s.now, s.fr.end[id]+0.25*s.fr.step)
	v := math.Max(1, s.fr.val[id]+s.rng.NormFloat64()*2)
	s.fr.end[id], s.fr.val[id] = t, v
	return op{isAppend: true, id: id, t: t, v: v}
}

// mixedReadStream is the ingest-mixed reader: three in four of its
// queries are Zipf-ranked templates over historical windows, one in four
// is a "latest window" sum ending at the moving append frontier. Not
// half and half: the two kinds differ a thousandfold in cost (a cache
// hit against a memtable merge), and at 50/50 — or any mix that puts
// half the queries near where one kind ends and the other begins — the
// median latency sits on the cliff between them and swings by tens of
// percent between identical runs. At 75/25 the median is a cache hit,
// the p95 a latest-window query near the memtable's fullest, and the
// throughput is set by the latest-window queries.
type mixedReadStream struct {
	rng  *rand.Rand
	tmpl *templateStream
	fr   *frontier
	dom  domain
}

func (s *mixedReadStream) next() op {
	if s.rng.Intn(4) < 3 {
		return s.tmpl.next()
	}
	w := (0.01 + 0.09*s.rng.Float64()) * s.dom.span
	t2 := s.fr.latest.load()
	return op{latest: true, q: temporalrank.SumQuery(queryK, t2-w, t2)}
}

// rpcStream is a dist-rpc client: 90 % scan-shaped reads, 10 % appends.
type rpcStream struct {
	rng   *rand.Rand
	reads *scanStream
	app   *appendStream
}

func (s *rpcStream) next() op {
	if s.rng.Intn(10) == 0 {
		return s.app.next()
	}
	return s.reads.next()
}

// takeQueries draws the next n queries of a read stream (the
// verification sample). Streams advance the append frontier as they
// generate, so only streams without appends may be sampled this way.
func takeQueries(s stream, n int) []temporalrank.Query {
	out := make([]temporalrank.Query, 0, n)
	for len(out) < n {
		if o := s.next(); !o.isAppend {
			out = append(out, o.q)
		}
	}
	return out
}
