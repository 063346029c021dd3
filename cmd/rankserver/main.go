// Command rankserver serves aggregate top-k queries over HTTP: it
// loads (or generates) a temporal dataset, builds one or more of the
// paper's eight indexes, and answers queries through an adaptive
// Planner, with up to -workers queries in flight at once.
//
// Usage:
//
//	rankserver -data temp.csv -method EXACT3 -addr :8080
//	rankserver -gen 500x80 -method EXACT3,APPX2+ -workers 16
//	rankserver -gen 5000x80 -method EXACT3 -shards 8
//	rankserver -gen 5000x80 -method EXACT3 -data snapdir/
//
// A -data file is a CSV or TRK1 binary dataset; its first bytes say
// which. When -data names a directory instead of a file, the server
// runs in durable mode: on boot it restores the directory's per-shard
// snapshot files (shard-*.trsnap) into a fully queryable cluster — no
// index is rebuilt, so restart time is IO-bound, not compute-bound —
// and falls back to -gen only when the directory holds no snapshot yet.
// A snapshot generation is written on graceful shutdown (SIGINT/SIGTERM)
// and on demand via POST /checkpoint; each shard file commits
// atomically, so a crash mid-checkpoint loses at most the new
// generation, never the previous one. In durable mode the restored
// snapshot fixes the shard count and index set, and -method/-shards/-r
// are ignored on restore.
//
// With several -method values each shard's Planner routes queries to
// the cheapest index satisfying their error tolerance (the eps
// parameter); eps=0 or no eps demands an exact answer. With -shards N
// the dataset is hash-partitioned across N independent shards (each
// its own DB, indexes, and device) and every query is scatter-gathered
// over up to GOMAXPROCS shards at once with a deterministic top-k merge
// — same answers, parallel execution.
//
// Endpoints (all JSON):
//
//	GET  /query?agg=sum&k=10&t1=50&t2=120&eps=0.05   declarative query (agg=sum|avg|instant)
//	GET  /score?id=3&t1=50&t2=120  one object's σ(t1,t2); 404 not_materialized
//	POST /append                    {"id":3,"t":130.5,"v":42.0} routed to the owning shard
//	POST /checkpoint                write a durable snapshot generation now (-data DIR mode)
//	GET  /stats                     dataset + per-shard + per-index + query statistics
//	GET  /healthz                   liveness probe
//
// Every query runs under a -timeout deadline, which also bounds its
// wait for a free query slot; SIGINT/SIGTERM drain in-flight requests
// before exit (graceful shutdown).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"temporalrank"
	"temporalrank/internal/gen"
	"temporalrank/internal/tsio"
)

// config carries every flag so the validator can be table-tested
// without touching the global flag set.
type config struct {
	addr     string
	data     string
	genSpec  string
	seed     int64
	method   string
	r        int
	kmax     int
	workers  int
	shards   int
	timeout  time.Duration
	rcache   int
	memtable int
	pprof    string
	router   string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.data, "data", "", "dataset path (CSV or TRK1 binary, told apart by the file's first bytes), or a snapshot directory for durable restore/checkpoint")
	flag.StringVar(&cfg.genSpec, "gen", "", "generate a synthetic dataset instead of loading: MxN (objects x avg segments), e.g. 500x80")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for -gen")
	flag.StringVar(&cfg.method, "method", "EXACT3", "comma-separated index methods for the planner (EXACT1/2/3, APPX1-B, APPX2-B, APPX1, APPX2, APPX2+)")
	flag.IntVar(&cfg.r, "r", 500, "breakpoint budget for approximate methods")
	flag.IntVar(&cfg.kmax, "kmax", 200, "max k supported by approximate methods")
	flag.IntVar(&cfg.workers, "workers", 0, "maximum /query requests running at once (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.shards, "shards", 1, "hash-partition the dataset across this many shards")
	flag.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "per-query deadline (0 = none)")
	flag.IntVar(&cfg.rcache, "result-cache", 0, "versioned result cache size in entries (0 = off); repeated identical queries are answered from cache and concurrent identical queries coalesce into one run")
	flag.IntVar(&cfg.memtable, "memtable", 0, "memtable flush threshold of every shard: appends land in the shard's memtable and a background compaction rebuilds its indexes once this many segments are buffered (0 = the default, 4096)")
	flag.StringVar(&cfg.pprof, "pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060); empty = off (the default — profiling endpoints are never exposed on the main listener)")
	flag.StringVar(&cfg.router, "router", "", "route queries to remote shardservers instead of hosting shards: replica addresses comma-separated, shard groups semicolon-separated, e.g. \"h1:7070,h2:7070;h3:7070,h4:7070\"")
	flag.Parse()
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateConfig(cfg, set); err != nil {
		fmt.Fprintln(os.Stderr, "rankserver:", err)
		os.Exit(2)
	}
	var err error
	if cfg.router != "" {
		err = runRouter(cfg)
	} else {
		err = run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rankserver:", err)
		os.Exit(1)
	}
}

// localOnlyFlags shape locally hosted shards and are meaningless when
// -router delegates hosting to remote shardservers; rejecting them
// early beats silently ignoring a -gen or -method the operator
// expected to matter.
var localOnlyFlags = []string{
	"data", "gen", "seed", "method", "r", "kmax",
	"shards", "result-cache", "memtable",
}

// validateConfig rejects bad flag combinations with a one-line error
// before any dataset is loaded or index built. set holds the names of
// flags explicitly present on the command line, so defaults never
// trip the mutual-exclusion checks.
func validateConfig(c config, set map[string]bool) error {
	if c.router != "" {
		for _, name := range localOnlyFlags {
			if set[name] {
				return fmt.Errorf("-%s configures locally hosted shards and conflicts with -router (the shardservers own their data)", name)
			}
		}
		_, err := parseRouterGroups(c.router)
		return err
	}
	if c.shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", c.shards)
	}
	if c.data == "" && c.genSpec == "" {
		return fmt.Errorf("one of -data, -gen or -router is required")
	}
	if c.data != "" {
		return checkDataPath(c.data, c.genSpec)
	}
	return nil
}

// checkDataPath validates -data before any expensive build: an
// existing directory must accept writes (it receives checkpoint
// generations), and a fresh snapshot-directory target must be
// creatable. An existing regular file is a dataset; the loader
// validates its format.
func checkDataPath(data, genSpec string) error {
	fi, err := os.Stat(data)
	switch {
	case err == nil && fi.IsDir():
		probe := filepath.Join(data, ".rankserver.probe")
		f, err := os.Create(probe)
		if err != nil {
			return fmt.Errorf("-data directory %s is not writable: %w", data, err)
		}
		f.Close()
		os.Remove(probe)
		return nil
	case err == nil:
		return nil
	case os.IsNotExist(err) && genSpec != "":
		if err := os.MkdirAll(data, 0o755); err != nil {
			return fmt.Errorf("-data %s cannot be created: %w", data, err)
		}
		return nil
	case os.IsNotExist(err):
		return fmt.Errorf("-data %s does not exist (pass -gen to create a snapshot directory there)", data)
	default:
		return fmt.Errorf("-data %s: %w", data, err)
	}
}

// parseRouterGroups splits the -router topology spec: shard groups
// separated by semicolons, replica addresses within a group by
// commas. Group order is shard order.
func parseRouterGroups(spec string) ([][]string, error) {
	var groups [][]string
	for _, g := range strings.Split(spec, ";") {
		var addrs []string
		for _, a := range strings.Split(g, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return nil, fmt.Errorf("-router %q: empty shard group (want \"addr,addr;addr,addr\")", spec)
		}
		groups = append(groups, addrs)
	}
	return groups, nil
}

// runRouter serves the HTTP API over a RemoteCluster: every query
// scatters to one replica per shard group (failing over dead ones),
// appends replicate synchronously, and POST /checkpoint fans out to
// the shard primaries. The endpoints and wire format are identical to
// local mode, so clients cannot tell a router from a single node.
func runRouter(cfg config) error {
	groups, err := parseRouterGroups(cfg.router)
	if err != nil {
		return err
	}
	rc, err := temporalrank.NewRemoteCluster(groups, temporalrank.RemoteClusterOptions{
		CallTimeout: cfg.timeout,
	})
	if err != nil {
		return fmt.Errorf("connect shard groups %q: %w", cfg.router, err)
	}
	defer rc.Close()
	srv := newServer(rc, cfg.workers, cfg.timeout)
	log.Printf("routing %d objects across %d shard groups", rc.NumSeries(), rc.NumShards())
	banner := fmt.Sprintf("routing on %s with %d workers", cfg.addr, cap(srv.slots))
	return serveHTTP(cfg.addr, cfg.pprof, banner, srv, nil)
}

func run(cfg config) error {
	snapDir := snapshotDir(cfg.data)
	mtOpts := &temporalrank.MemtableOptions{FlushSegments: cfg.memtable}
	var (
		cluster *temporalrank.Cluster
		err     error
	)
	if snapDir != "" && hasSnapshotFiles(snapDir) {
		restoreStart := time.Now()
		cluster, err = temporalrank.OpenClusterSnapshot(snapDir, temporalrank.ClusterOptions{
			ResultCache: cfg.rcache,
			Memtable:    mtOpts,
		})
		if err != nil {
			return fmt.Errorf("restore snapshot %s: %w", snapDir, err)
		}
		log.Printf("restored %d shards (%d objects, %d segments) from %s in %v — no index rebuilt",
			cluster.NumShards(), cluster.NumSeries(), cluster.NumSegments(),
			snapDir, time.Since(restoreStart).Round(time.Millisecond))
	} else {
		dataFile := cfg.data
		if snapDir != "" {
			dataFile = "" // -data is the snapshot target, -gen is the source
		}
		db, err := loadDB(dataFile, cfg.genSpec, cfg.seed)
		if err != nil {
			return err
		}
		log.Printf("loaded %d objects, %d segments, domain [%g, %g]",
			db.NumSeries(), db.NumSegments(), db.Start(), db.End())

		var opts []temporalrank.Options
		for _, m := range strings.Split(cfg.method, ",") {
			m = strings.TrimSpace(m)
			if m == "" {
				continue
			}
			opts = append(opts, temporalrank.Options{
				Method:  temporalrank.Method(m),
				TargetR: cfg.r,
				KMax:    cfg.kmax,
			})
		}
		if len(opts) == 0 {
			return fmt.Errorf("-method must name at least one index")
		}
		buildStart := time.Now()
		cluster, err = temporalrank.NewClusterFromDB(db, temporalrank.ClusterOptions{
			Shards:      cfg.shards,
			Indexes:     opts,
			ResultCache: cfg.rcache,
			Memtable:    mtOpts,
		})
		if err != nil {
			return err
		}
		cst := cluster.Stats()
		for i, sst := range cst.PerShard {
			pages, bytes := 0, int64(0)
			for _, ist := range sst.Indexes {
				pages += ist.Pages
				bytes += ist.Bytes
			}
			log.Printf("shard %d: %d objects, %d segments, %d index pages (%d bytes)",
				i, sst.Objects, sst.Segments, pages, bytes)
		}
		log.Printf("%d shards x %d indexes built in %v",
			cst.Shards, len(opts), time.Since(buildStart).Round(time.Millisecond))
		if snapDir != "" {
			// Prime the directory so the next boot restores instead of
			// rebuilding, even if the process dies ungracefully later.
			primeStart := time.Now()
			if err := cluster.Checkpoint(snapDir); err != nil {
				return fmt.Errorf("initial checkpoint to %s: %w", snapDir, err)
			}
			log.Printf("checkpointed to %s in %v", snapDir, time.Since(primeStart).Round(time.Millisecond))
		}
	}

	srv := newServer(cluster, cfg.workers, cfg.timeout)
	var onShutdown func() error
	if snapDir != "" {
		srv.snapDir = snapDir
		onShutdown = func() error {
			elapsed, err := srv.checkpointNow()
			if err != nil {
				return fmt.Errorf("shutdown checkpoint to %s: %w", snapDir, err)
			}
			log.Printf("checkpointed to %s in %v", snapDir, elapsed.Round(time.Millisecond))
			return nil
		}
	}
	banner := fmt.Sprintf("serving %s on %s with %d workers", cfg.method, cfg.addr, cap(srv.slots))
	return serveHTTP(cfg.addr, cfg.pprof, banner, srv, onShutdown)
}

// serveHTTP runs srv on addr with opt-in side-listener profiling and
// graceful shutdown: SIGINT/SIGTERM stops accepting, drains in-flight
// requests, then runs onShutdown (local mode's exit checkpoint).
func serveHTTP(addr, pprofAddr, banner string, srv *server, onShutdown func() error) error {
	httpSrv := &http.Server{Addr: addr, Handler: srv}

	// Opt-in profiling on a side listener, never on the query address.
	pprofSrv, pprofLn, err := startPprof(pprofAddr)
	if err != nil {
		return err
	}
	if pprofSrv != nil {
		log.Printf("pprof on http://%s/debug/pprof/", pprofLn.Addr())
		defer pprofSrv.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Print(banner)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Print("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if onShutdown != nil {
		return onShutdown()
	}
	return nil
}

// snapshotDir returns data when it names a durable snapshot directory,
// and "" when it names a dataset file or is unset. validateConfig has
// already classified -data (creating a fresh snapshot directory under
// -gen), so from here on a directory is exactly a snapshot directory.
func snapshotDir(data string) string {
	if fi, err := os.Stat(data); err == nil && fi.IsDir() {
		return data
	}
	return ""
}

// hasSnapshotFiles reports whether dir holds at least one per-shard
// snapshot file to restore from.
func hasSnapshotFiles(dir string) bool {
	matches, err := filepath.Glob(filepath.Join(dir, temporalrank.SnapshotFilePattern))
	return err == nil && len(matches) > 0
}

func loadDB(data, genSpec string, seed int64) (*temporalrank.DB, error) {
	switch {
	case genSpec != "":
		var m, n int
		if _, err := fmt.Sscanf(genSpec, "%dx%d", &m, &n); err != nil {
			return nil, fmt.Errorf("bad -gen %q (want MxN, e.g. 500x80): %w", genSpec, err)
		}
		ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: m, Navg: n, Seed: seed, Span: 1000})
		if err != nil {
			return nil, err
		}
		return temporalrank.NewDBFromDataset(ds), nil
	case data != "":
		f, err := os.Open(data)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ds, err := tsio.Read(f)
		if err != nil {
			return nil, err
		}
		return temporalrank.NewDBFromDataset(ds), nil
	default:
		return nil, fmt.Errorf("one of -data or -gen is required")
	}
}
