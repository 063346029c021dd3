package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"temporalrank"
)

// backend is the slice of cluster behavior the HTTP handlers need.
// Both *temporalrank.Cluster (local shards) and
// *temporalrank.RemoteCluster (-router mode) satisfy it, so every
// request flows through the same handler code regardless of where the
// shards live.
type backend interface {
	temporalrank.Querier
	Append(id int, t, v float64) error
	Score(id int, t1, t2 float64) (float64, error)
	PrimaryMethod(id int) temporalrank.Method
	NumSeries() int
}

// server is the HTTP front end over a backend — either a local
// Cluster (one or more shards, each an independent DB + indexes +
// Planner) or a RemoteCluster routing to shardserver replicas — with
// at most -workers queries in flight at once. A single-node
// deployment is simply the 1-shard cluster, so every request flows
// through the same Querier path regardless of -shards. It implements
// http.Handler, so tests mount it on httptest servers.
//
// /query is the primary endpoint: the caller states aggregate, k,
// interval and error tolerance; each shard's planner picks the
// cheapest index that satisfies them and the per-shard answers are
// merged deterministically.
type server struct {
	backend backend
	// cluster is the local shard set; nil in -router mode, where
	// router carries the remote topology instead. At most one of the
	// two is non-nil.
	cluster *temporalrank.Cluster
	router  *temporalrank.RemoteCluster
	// slots is the -workers semaphore: a /query holds one slot while the
	// backend runs it, and waits for one (up to its deadline) otherwise.
	slots   chan struct{}
	mux     *http.ServeMux
	timeout time.Duration
	start   time.Time

	// The /stats query counters: completed queries (failed ones
	// included), failed ones, queries running now, and their summed
	// backend time.
	queries, queryErrors atomic.Uint64
	busy, queryNanos     atomic.Int64

	// snapDir, when set (durable mode), is the snapshot directory
	// POST /checkpoint and the shutdown path write to. snapMu
	// serializes checkpoints: the paged store is single-writer per
	// device, so a signal-triggered checkpoint must not interleave with
	// an endpoint-triggered one on the same files.
	snapDir string
	snapMu  sync.Mutex
}

// newServer wires the routes over b, a local Cluster or (in -router
// mode) a RemoteCluster; workers <= 0 selects GOMAXPROCS query slots.
func newServer(b backend, workers int, timeout time.Duration) *server {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &server{
		backend: b,
		slots:   make(chan struct{}, workers),
		mux:     http.NewServeMux(),
		timeout: timeout,
		start:   time.Now(),
	}
	switch b := b.(type) {
	case *temporalrank.Cluster:
		s.cluster = b
	case *temporalrank.RemoteCluster:
		s.router = b
	}
	s.mux.HandleFunc("GET /query", s.handleQuery)
	s.mux.HandleFunc("GET /score", s.handleScore)
	s.mux.HandleFunc("POST /append", s.handleAppend)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s
}

// checkpointNow writes one snapshot generation for every shard,
// serialized against concurrent checkpoint requests. Queries keep
// running throughout (the checkpoint holds only shared locks); appends
// to a shard wait for that shard's write.
func (s *server) checkpointNow() (time.Duration, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	start := time.Now()
	if err := s.cluster.Checkpoint(s.snapDir); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// handleCheckpoint serves POST /checkpoint: write a durable snapshot
// generation now. In -router mode the request fans out to every shard
// primary, which persists into its own -data directory; locally it
// writes to the -data directory (409 when the server runs without
// one).
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.router != nil {
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		start := time.Now()
		if err := s.router.Checkpoint(ctx); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status":     "checkpointed",
			"dir":        "remote",
			"elapsed_ns": int64(time.Since(start)),
		})
		return
	}
	if s.snapDir == "" {
		writeError(w, http.StatusConflict, fmt.Errorf("no snapshot directory configured (run with -data DIR)"))
		return
	}
	elapsed, err := s.checkpointNow()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "checkpointed",
		"dir":        s.snapDir,
		"elapsed_ns": int64(elapsed),
	})
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// queryCtx derives the per-request context, applying the server's
// timeout so slow scans cannot pin query slots forever.
func (s *server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// resultJSON is one ranked object on the wire.
type resultJSON struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

// queryResponse is the body of /query. T2 is a pointer so instant
// queries omit it while an interval query's t2=0 is still echoed.
type queryResponse struct {
	Agg       string       `json:"agg"`
	Method    string       `json:"method"`
	Exact     bool         `json:"exact"`
	Epsilon   float64      `json:"epsilon,omitempty"`
	K         int          `json:"k"`
	T1        float64      `json:"t1"`
	T2        *float64     `json:"t2,omitempty"`
	Results   []resultJSON `json:"results"`
	LatencyNS int64        `json:"latency_ns"`
	IOs       uint64       `json:"ios"`
}

// parseQuery assembles a temporalrank.Query from URL parameters; the
// agg parameter chooses the aggregate, defaulting to sum.
func (s *server) parseQuery(r *http.Request) (temporalrank.Query, error) {
	q := temporalrank.Query{Agg: temporalrank.Agg(r.URL.Query().Get("agg"))}
	if q.Agg == "" {
		q.Agg = temporalrank.AggSum
	}
	switch q.Agg {
	case temporalrank.AggSum, temporalrank.AggAvg, temporalrank.AggInstant:
	default:
		return q, fmt.Errorf("unknown agg %q (want sum, avg or instant)", q.Agg)
	}
	var err error
	if q.K, err = intParam(r, "k", 10); err != nil {
		return q, err
	}
	if q.K < 1 {
		return q, fmt.Errorf("k must be >= 1, got %d", q.K)
	}
	// Clamp to the number of objects: a larger k cannot yield more
	// results, and an unbounded k would size the top-k heap from
	// attacker input.
	if m := s.backend.NumSeries(); q.K > m {
		q.K = m
	}
	if q.Agg == temporalrank.AggInstant {
		// Accept t (documented) or t1 (the Query field carrying it).
		if r.URL.Query().Get("t") != "" {
			q.T1, err = floatParam(r, "t")
		} else {
			q.T1, err = floatParam(r, "t1")
		}
		if err != nil {
			return q, err
		}
	} else {
		if q.T1, err = floatParam(r, "t1"); err != nil {
			return q, err
		}
		if q.T2, err = floatParam(r, "t2"); err != nil {
			return q, err
		}
	}
	if raw := r.URL.Query().Get("eps"); raw != "" {
		if q.MaxEpsilon, err = strconv.ParseFloat(raw, 64); err != nil {
			return q, fmt.Errorf("bad eps=%q: %w", raw, err)
		}
	}
	return q, nil
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := s.parseQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	ans, err := s.runQuery(ctx, q)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	out := queryResponse{
		Agg:       string(q.Agg),
		Method:    string(ans.Method),
		Exact:     ans.Exact,
		Epsilon:   ans.Epsilon,
		K:         q.K,
		T1:        q.T1,
		Results:   make([]resultJSON, len(ans.Results)),
		LatencyNS: int64(ans.Latency),
		IOs:       ans.IOs,
	}
	if q.Agg != temporalrank.AggInstant {
		t2 := q.T2
		out.T2 = &t2
	}
	for i, res := range ans.Results {
		out.Results[i] = resultJSON{ID: res.ID, Score: res.Score}
	}
	writeJSON(w, http.StatusOK, out)
}

// runQuery answers q through the backend once a query slot is free. A
// request whose context ends while it waits returns ctx.Err() without
// running.
func (s *server) runQuery(ctx context.Context, q temporalrank.Query) (temporalrank.Answer, error) {
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		s.queries.Add(1)
		s.queryErrors.Add(1)
		return temporalrank.Answer{}, ctx.Err()
	}
	defer func() { <-s.slots }()
	s.busy.Add(1)
	start := time.Now()
	ans, err := s.backend.Run(ctx, q)
	s.queryNanos.Add(int64(time.Since(start)))
	s.busy.Add(-1)
	s.queries.Add(1)
	if err != nil {
		s.queryErrors.Add(1)
	}
	return ans, err
}

// scoreResponse is the body of /score.
type scoreResponse struct {
	ID     int     `json:"id"`
	T1     float64 `json:"t1"`
	T2     float64 `json:"t2"`
	Score  float64 `json:"score"`
	Method string  `json:"method"`
	Exact  bool    `json:"exact"`
}

// handleScore serves one object's σ(t1,t2) through the owning shard's
// primary index (or shard DB when index-less). An approximate index
// that has no estimate for the object answers 404 with code
// "not_materialized" — never a silent 0.
func (s *server) handleScore(w http.ResponseWriter, r *http.Request) {
	id, err := intParam(r, "id", -1)
	if err != nil || id < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing or bad id"))
		return
	}
	t1, err := floatParam(r, "t1")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	t2, err := floatParam(r, "t2")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	score, err := s.backend.Score(id, t1, t2)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	method := s.backend.PrimaryMethod(id)
	writeJSON(w, http.StatusOK, scoreResponse{
		ID: id, T1: t1, T2: t2, Score: score,
		Method: string(method), Exact: !method.IsApprox(),
	})
}

// appendRequest is the body of POST /append.
type appendRequest struct {
	ID int     `json:"id"`
	T  float64 `json:"t"`
	V  float64 `json:"v"`
}

// handleAppend routes one segment to its owning shard, where
// Planner.Append buffers it in the shard's memtable: queries see it at
// once, and compaction folds it into every shard index alike.
func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req appendRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad append body: %w", err))
		return
	}
	if err := s.backend.Append(req.ID, req.T, req.V); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": req.ID, "t": req.T, "v": req.V, "status": "appended"})
}

// indexStatsJSON is one index's entry in /stats. Shard identifies the
// partition the structure lives on (always 0 on single-node servers).
type indexStatsJSON struct {
	Shard      int     `json:"shard"`
	Method     string  `json:"method"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	KMax       int     `json:"kmax,omitempty"`
	IndexPages int     `json:"index_pages"`
	IndexBytes int64   `json:"index_bytes"`
	BlockSize  int     `json:"block_size"`
	DeviceIOs  uint64  `json:"device_ios"`
}

// shardStatsJSON is one shard's slice of the data (its compacted base)
// and how its most recent compaction went: a background compaction has
// nowhere else to report a failure.
type shardStatsJSON struct {
	Shard                 int     `json:"shard"`
	Objects               int     `json:"objects"`
	Segments              int     `json:"segments"`
	LastCompactionSeconds float64 `json:"last_compaction_seconds,omitempty"`
	LastCompactionError   string  `json:"last_compaction_error,omitempty"`
}

// resultCacheJSON is the /stats view of the versioned result cache
// (present only when the server runs with -result-cache > 0). Hits
// were answered from a stored result, misses executed the query, and
// coalesced requests joined another request's identical in-flight
// query. HitRatio is hits over all lookups.
type resultCacheJSON struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Coalesced uint64  `json:"coalesced"`
	HitRatio  float64 `json:"hit_ratio"`
}

// routerReplicaJSON and routerGroupJSON are the /stats view of the
// remote topology in -router mode: one entry per shard group with
// each replica's address and health state (live/syncing/down).
type routerReplicaJSON struct {
	Addr  string `json:"addr"`
	State string `json:"state"`
}

type routerGroupJSON struct {
	Shard    int                 `json:"shard"`
	Replicas []routerReplicaJSON `json:"replicas"`
}

// statsResponse is the body of /stats. The top-level index fields
// mirror the primary index for pre-planner clients; the indexes array
// covers every structure on every shard, and the aggregate fields sum
// over them. In -router mode the index fields are absent (the
// structures live on the shard nodes) and router carries the replica
// topology instead.
type statsResponse struct {
	Method        string            `json:"method"`
	Router        []routerGroupJSON `json:"router,omitempty"`
	Shards        int               `json:"shards"`
	Objects       int               `json:"objects"`
	Segments      int               `json:"segments"`
	DomainStart   float64           `json:"domain_start"`
	DomainEnd     float64           `json:"domain_end"`
	PerShard      []shardStatsJSON  `json:"per_shard"`
	ResultCache   *resultCacheJSON  `json:"result_cache,omitempty"`
	Indexes       []indexStatsJSON  `json:"indexes"`
	IndexPages    int               `json:"index_pages"`
	IndexBytes    int64             `json:"index_bytes"`
	BlockSize     int               `json:"block_size"`
	DeviceIOs     uint64            `json:"device_ios"`
	Workers       int               `json:"workers"`
	Queries       uint64            `json:"queries"`
	QueryErrors   uint64            `json:"query_errors"`
	BusyWorkers   int64             `json:"busy_workers"`
	QueryTimeNS   int64             `json:"query_time_ns"`
	UptimeSeconds float64           `json:"uptime_seconds"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	out := statsResponse{
		Workers:       cap(s.slots),
		Queries:       s.queries.Load(),
		QueryErrors:   s.queryErrors.Load(),
		BusyWorkers:   s.busy.Load(),
		QueryTimeNS:   s.queryNanos.Load(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if s.router != nil {
		out.Method = "REMOTE"
		out.Shards = s.router.NumShards()
		out.Objects = s.router.NumSeries()
		for _, g := range s.router.Health() {
			rg := routerGroupJSON{Shard: g.Shard}
			for _, rep := range g.Replicas {
				rg.Replicas = append(rg.Replicas, routerReplicaJSON{Addr: rep.Addr, State: rep.State})
			}
			out.Router = append(out.Router, rg)
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	cst := s.cluster.Stats()
	out.Shards = cst.Shards
	out.Objects = cst.Objects
	out.Segments = cst.Segments
	out.DomainStart = s.cluster.Start()
	out.DomainEnd = s.cluster.End()
	if cs, ok := s.cluster.CacheStats(); ok {
		out.ResultCache = &resultCacheJSON{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Coalesced: cs.Coalesced,
			HitRatio:  cs.HitRatio(),
		}
	}
	planners := s.cluster.Planners()
	for shard, sst := range cst.PerShard {
		out.PerShard = append(out.PerShard, shardStatsJSON{
			Shard: shard, Objects: sst.Objects, Segments: sst.Segments,
		})
		if planners[shard] == nil {
			continue
		}
		mt, _ := planners[shard].MemtableStats()
		sj := &out.PerShard[len(out.PerShard)-1]
		sj.LastCompactionSeconds = mt.LastCompaction.Seconds()
		if mt.LastError != nil {
			sj.LastCompactionError = mt.LastError.Error()
		}
		for _, ix := range planners[shard].Indexes() {
			ist := ix.Stats()
			out.Indexes = append(out.Indexes, indexStatsJSON{
				Shard:      shard,
				Method:     ist.MethodName,
				Epsilon:    ix.Epsilon(),
				KMax:       ix.KMax(),
				IndexPages: ist.Pages,
				IndexBytes: ist.Bytes,
				BlockSize:  ist.BlockSize,
				DeviceIOs:  ist.DeviceIOs,
			})
			if out.Method == "" {
				out.Method = ist.MethodName
				out.BlockSize = ist.BlockSize
			}
			out.IndexPages += ist.Pages
			out.IndexBytes += ist.Bytes
			out.DeviceIOs += ist.DeviceIOs
		}
	}
	if out.Method == "" {
		out.Method = string(temporalrank.MethodReference)
	}
	writeJSON(w, http.StatusOK, out)
}

// statusFor maps the package's typed errors onto HTTP statuses — the
// payoff of sentinel errors over string matching.
func statusFor(err error) int {
	switch {
	case errors.Is(err, temporalrank.ErrBadInterval):
		return http.StatusBadRequest
	case errors.Is(err, temporalrank.ErrUnknownSeries),
		errors.Is(err, temporalrank.ErrNotMaterialized):
		return http.StatusNotFound
	case errors.Is(err, temporalrank.ErrKTooLarge):
		return http.StatusUnprocessableEntity
	case errors.Is(err, temporalrank.ErrShardUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

func intParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: %w", name, raw, err)
	}
	return v, nil
}

func floatParam(r *http.Request, name string) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing required parameter %s", name)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: %w", name, raw, err)
	}
	return v, nil
}

// writeJSON marshals v before it writes the header, so a value JSON
// cannot carry (a score that overflowed to ±Inf) answers 500 with an
// error body instead of code with an empty one.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": err.Error()}) // a string map always marshals
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n')) // a failed write means the client is gone
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
