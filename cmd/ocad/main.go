// Command ocad is the community-search query daemon: it loads a graph,
// obtains an overlapping community cover (by running OCA or loading a
// precomputed cover file), builds the inverted node→community index,
// and serves JSON over HTTP until terminated. Edge mutations posted at
// runtime are applied by a background refresh worker that re-runs OCA
// and atomically swaps in the new generation; readers never block.
//
// With -shards K the graph and its cover are partitioned across K
// node-disjoint shards (modulo-K node assignment, ghost halos for
// boundary neighborhoods), each kept live by its own refresh worker; a
// router fans lookups out to the owning shards and every response
// quotes a (shard, generation) vector so clients can detect a lagging
// shard.
//
// The sharded deployment also runs multi-process: each shard in its own
// process with `-serve-shard i`, hosting that shard's worker behind the
// wire protocol documented in docs/PROTOCOL.md, and a router process
// with `-shard-addrs` fanning out to them over HTTP. See "Running
// multi-process" in README.md.
//
// Each shard may additionally be served by read replicas: `-follow`
// starts a process that mirrors a primary shard server over the same
// snapshot resolution a router uses and re-serves it read-only, and the
// router's `-replica-addrs` has it mirror each shard's replicas beside
// the primary, so reads keep answering (from a sufficiently fresh
// mirror) while a primary is dead or broken; writes go to the primaries
// only.
//
// With -data-dir (single-graph and -serve-shard roles) the directory is
// the source of truth: -in only bootstraps an empty one, and a restart
// over a populated directory serves the persisted state without opening
// the input file (which may be omitted or gone by then).
//
// Usage:
//
//	ocad -in graph.txt [-addr :8080] [-shards K] [flags]            # single process (K in-process shards)
//	ocad -in graph.txt -shards K -serve-shard i [-addr :9301]       # shard-server role (one per shard)
//	ocad -follow host:9301 [-addr :9401]                            # replica role (read-only mirror of one shard server)
//	ocad -shard-addrs host:9301,host:9302,... [-addr :8080]         # router role over shard processes
//	     [-replica-addrs host:9401,host:9402;host:9501]             #   (per-shard replica lists: ';' between shards, ',' within)
//
// Endpoints (router / single-process):
//
//	GET  /healthz                    liveness, refresh state, per-shard vector, request summary
//	GET  /v1/cover/stats             cover-wide overlap statistics (+ per-shard c)
//	GET  /v1/cover/export            NDJSON streaming bulk export
//	GET  /v1/node/{id}/communities   which communities contain this node
//	POST /v1/nodes/communities       batch lookup fanned out to the owning shards
//	POST /v1/search                  run one seeded community search
//	POST /v1/edges                   add/remove edges (may grow the node set), triggering refreshes
//	GET  /debug/metrics              per-endpoint request counts + latency histograms
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining
// in-flight requests for up to -shutdown-timeout (a shard server stops
// accepting mutations first, so nothing accepted is lost silently).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ocad:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// ContinueOnError keeps parse failures on run()'s error-return path
	// (ExitOnError would os.Exit inside Parse, killing test binaries).
	fs := flag.NewFlagSet("ocad", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file once serving (for scripts and tests using :0)")
	in := fs.String("in", "", "input graph (edge list or oca binary format); required except with -shard-addrs, -follow, or a -data-dir that already holds state — a populated data directory is served as is and -in is not read")
	coverPath := fs.String("cover", "", "serve this precomputed cover file instead of running OCA")
	lazy := fs.Bool("lazy", false, "delay the OCA run until the first request that needs the cover")
	seed := fs.Int64("seed", 1, "random seed for the OCA run")
	c := fs.Float64("c", 0, "inner-product parameter override (0 = derive -1/λmin from the spectrum)")
	workers := fs.Int("workers", 0, "OCA worker goroutines (0 = GOMAXPROCS)")
	searchWorkers := fs.Int("search-workers", 0, "max concurrent /v1/search searches (0 = GOMAXPROCS)")
	searchCacheSize := fs.Int("search-cache-size", 0, "generation-keyed /v1/search result cache capacity in entries (0 = default 4096, negative = disable caching and coalescing)")
	searchCacheRho := fs.Float64("search-cache-rho", 0, "ρ-similarity floor for cache carry-forward spot checks across incremental rebuilds (0 = default 0.95)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request deadline")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown drain budget")
	refreshDebounce := fs.Duration("refresh-debounce", 50*time.Millisecond, "how long queued /v1/edges mutations coalesce before an OCA re-run")
	maxBatchIDs := fs.Int("max-batch-ids", 10000, "ids answered per batch lookup before clamping")
	coldRefresh := fs.Bool("cold-refresh", false, "re-run OCA from scratch on refresh instead of warm-starting from unaffected communities")
	shards := fs.Int("shards", 1, "partition the graph and cover across K node-disjoint shards behind a fan-out router")
	maxNodes := fs.Int("max-nodes", -1, "max node-set size /v1/edges growth may reach (-1 = 8x the initial graph, 0 = fixed node set)")
	rederiveC := fs.Float64("rederive-c", 0.25, "re-derive c=-1/λmin during a rebuild once applied mutations exceed this fraction of the graph's edges (0 = pin the startup value; ignored when -c is set)")
	incrementalThreshold := fs.Float64("incremental-threshold", 0.25, "rebuild incrementally (dirty-region scoped OCA, patched index) when a mutation batch touches at most this fraction of the served communities; batches touching none skip OCA entirely (0 = always rebuild fully)")
	dataDir := fs.String("data-dir", "", "durable data directory (snapshot segments + mutation WAL, docs/PERSISTENCE.md): boot recovers the newest valid segment and replays the WAL tail; single-graph and -serve-shard roles only")
	walFsync := fs.Bool("wal-fsync", true, "fsync each WAL record before acknowledging the batch (off: the tail's durability is bounded by the OS flush interval)")
	segmentEvery := fs.Uint64("segment-every", 8, "seal a snapshot segment every N published generations (a clean shutdown always seals a final one)")
	retainSegments := fs.Int("retain-segments", 3, "snapshot segments kept on disk; retained generations answer /v1/cover/export?generation=")
	serveShard := fs.Int("serve-shard", -1, "shard-server role: host shard i of the -shards K split behind the wire protocol (docs/PROTOCOL.md)")
	shardAddrs := fs.String("shard-addrs", "", "router role: comma-separated shard-server addresses (addr i hosts shard i); serves the public API over them")
	connectTimeout := fs.Duration("shard-connect-timeout", 60*time.Second, "router role: how long to wait for all shard servers to answer at startup")
	pollInterval := fs.Duration("shard-poll-interval", 100*time.Millisecond, "router role: shard generation poll cadence")
	shardReqTimeout := fs.Duration("shard-request-timeout", 0, "router and replica roles: per-RPC deadline against shard servers (0 = default 5s)")
	follow := fs.String("follow", "", "replica role: mirror this primary shard server and re-serve it read-only behind the wire protocol")
	replicaAddrs := fs.String("replica-addrs", "", "router role: per-shard replica lists, ';' between shards and ',' within (e.g. \"r0a,r0b;r1a\"); the router mirrors them beside each primary so reads survive a dead primary")
	faultPlan := fs.String("fault-plan", "", "DEV ONLY: JSON fault-injection plan (docs/OPERATIONS.md) applied to this process's HTTP surface; also serves the runtime "+faultinject.ControlPath+" control endpoint")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("-shards %d must be at least 1", *shards)
	}
	// Normalize here so the handler deadline and http.Server's
	// WriteTimeout are derived from the same value (server.Config also
	// defaults non-positive timeouts to 30s).
	if *reqTimeout <= 0 {
		*reqTimeout = 30 * time.Second
	}
	inj, err := loadFaultInjector(*faultPlan)
	if err != nil {
		return err
	}

	cfg := server.Config{
		Lazy:                 *lazy,
		SearchWorkers:        *searchWorkers,
		RequestTimeout:       *reqTimeout,
		RefreshDebounce:      *refreshDebounce,
		MaxBatchIDs:          *maxBatchIDs,
		DisableWarmStart:     *coldRefresh,
		Shards:               *shards,
		RederiveCAfter:       *rederiveC,
		IncrementalThreshold: *incrementalThreshold,
		SearchCacheSize:      *searchCacheSize,
		SearchCacheRho:       *searchCacheRho,
		OCA:                  core.Options{Seed: *seed, C: *c, Workers: *workers},
	}

	if *serveShard >= 0 && *shardAddrs != "" {
		return errors.New("-serve-shard and -shard-addrs are different roles; pick one")
	}
	if *follow != "" {
		if *serveShard >= 0 || *shardAddrs != "" {
			return errors.New("-follow is its own role; it cannot combine with -serve-shard or -shard-addrs")
		}
		if *in != "" || *coverPath != "" || *lazy || *dataDir != "" {
			return errors.New("-follow mirrors its primary; -in, -cover, -lazy and -data-dir are not supported")
		}
		return runReplica(*follow, *addr, *addrFile, *connectTimeout, *pollInterval, *shardReqTimeout, *shutdownTimeout, inj)
	}
	if *replicaAddrs != "" && *shardAddrs == "" {
		return errors.New("-replica-addrs requires the router role (-shard-addrs)")
	}
	if *dataDir != "" {
		if *shardAddrs != "" {
			return errors.New("-data-dir is not supported in the router role (durability lives in the shard servers)")
		}
		if *shards > 1 && *serveShard < 0 {
			return errors.New("-data-dir with -shards > 1 requires the multi-process deployment (-serve-shard per process): in-process sharding routes growth the WAL cannot replay")
		}
		if *coverPath != "" {
			return errors.New("-cover is not supported with -data-dir (the data directory owns the served state)")
		}
	}
	if *shardAddrs != "" {
		if *coverPath != "" || *lazy {
			return errors.New("-cover and -lazy are not supported in the router role (shard servers own the covers)")
		}
		replicas, err := parseReplicaAddrs(*replicaAddrs, len(strings.Split(*shardAddrs, ",")))
		if err != nil {
			return err
		}
		return runRouter(cfg, strings.Split(*shardAddrs, ","), replicas, *shards, *in,
			*addr, *addrFile, *connectTimeout, *pollInterval, *shardReqTimeout, *shutdownTimeout, inj)
	}
	if *in == "" && *dataDir == "" {
		// With a data directory the check waits until the directory is
		// known to be empty: a populated one boots without -in.
		fs.Usage()
		return errMissingIn
	}
	opts := persist.Options{Dir: *dataDir, FsyncEveryBatch: *walFsync, SegmentEvery: *segmentEvery, Retain: *retainSegments}
	nodes := func(seg *persist.Segment) (*graph.Graph, int, int, error) { return bootNodes(*in, *maxNodes, seg) }
	if *serveShard >= 0 {
		if *serveShard >= *shards {
			return fmt.Errorf("-serve-shard %d out of range for -shards %d", *serveShard, *shards)
		}
		if *coverPath != "" || *lazy {
			return errors.New("-cover and -lazy are not supported in the shard-server role")
		}
		return runShardServer(cfg, opts, nodes, *serveShard, *shards, *addr, *addrFile, *shutdownTimeout, inj)
	}
	if *shards > 1 && *coverPath != "" {
		return errors.New("-cover is not supported with -shards > 1 (precomputed covers cannot be partitioned)")
	}
	if *shards > 1 && *lazy {
		return errors.New("-lazy is not supported with -shards > 1 (every shard's cover is built at startup)")
	}

	// With a data directory, disk is the source of truth: a recovered
	// snapshot supersedes the -in graph (which only bootstraps an empty
	// directory and is not opened otherwise), and every accepted mutation
	// is WAL-logged from here on.
	ds, err := persist.OpenSingle(opts, cfg.RefreshConfig(), nodes)
	if err != nil {
		return err
	}
	cfg.MaxNodes, cfg.Persist = ds.MaxNodes, ds.Store
	var srv *server.Server
	if recovered := ds.Recovered; recovered != nil {
		rs := ds.Store.Stats().Recovered
		log.Printf("recovered generation %d from %s (%s, %d batches replayed)",
			recovered.Gen, opts.Dir, rs.Source, rs.ReplayedBatches)
		if srv, err = server.NewWithSnapshot(recovered, cfg); err != nil {
			return err
		}
		logRecoveryDetail("", ds.Store)
	} else if *coverPath != "" {
		cv, err := loadCover(*coverPath)
		if err != nil {
			return err
		}
		log.Printf("loaded cover: %d communities", cv.Len())
		srv, err = server.NewWithCover(ds.Graph, cv, cfg)
		if err != nil {
			return err
		}
	} else {
		// -lazy with -shards > 1 was rejected above.
		switch {
		case *shards > 1:
			log.Printf("running OCA across %d shards (seed %d)...", *shards, *seed)
		case !*lazy:
			log.Printf("running OCA (seed %d)...", *seed)
		}
		start := time.Now()
		srv, err = server.New(ds.Graph, cfg)
		if err != nil {
			return err
		}
		switch {
		case *shards > 1:
			log.Printf("%d shard covers ready in %v", *shards, time.Since(start).Round(time.Millisecond))
		case !*lazy:
			cv, err := srv.Cover()
			if err != nil {
				return err
			}
			log.Printf("cover ready: %d communities in %v", cv.Len(), time.Since(start).Round(time.Millisecond))
		}
	}

	// The write timeout backs up the handler-level deadline with slack
	// for response transmission.
	httpSrv := newHTTPServer(srv.Handler(), inj, *reqTimeout+10*time.Second)
	return serveUntilSignal(httpSrv, *addr, *addrFile, *shutdownTimeout, srv.Close, nil)
}

// loadFaultInjector turns the -fault-plan flag into an Injector (nil
// when the flag is unset — zero overhead on the serving path). The
// plan's faults and its runtime control endpoint are strictly a dev
// and chaos-testing facility, never for production traffic.
func loadFaultInjector(path string) (*faultinject.Injector, error) {
	if path == "" {
		return nil, nil
	}
	plan, err := faultinject.LoadPlan(path)
	if err != nil {
		return nil, fmt.Errorf("-fault-plan: %w", err)
	}
	log.Printf("FAULT INJECTION ENABLED (dev only): plan %s, %d rules, seed %d; control at %s",
		path, len(plan.Rules), plan.Seed, faultinject.ControlPath)
	return faultinject.New(plan), nil
}

// newHTTPServer serves a role's handler with the daemon's header and
// idle timeouts (writeTimeout 0: writes unbounded), wrapped in the fault
// injector when a plan was given — plus its control endpoint,
// registered outside the injected wrapper so a blackhole-everything
// plan can still be lifted.
func newHTTPServer(h http.Handler, inj *faultinject.Injector, writeTimeout time.Duration) *http.Server {
	if inj != nil {
		h = inj.Handler(h)
	}
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, WriteTimeout: writeTimeout, IdleTimeout: 2 * time.Minute}
}

// parseReplicaAddrs splits the -replica-addrs value into per-shard
// replica lists: ';' separates shards, ',' separates replicas within a
// shard, and empty entries mean "this shard has no replicas". Returns
// nil for an empty flag (plain unreplicated topology).
func parseReplicaAddrs(s string, k int) ([][]string, error) {
	if s == "" {
		return nil, nil
	}
	groups := strings.Split(s, ";")
	if len(groups) != k {
		return nil, fmt.Errorf("-replica-addrs names %d shard groups for %d -shard-addrs (separate shards with ';')", len(groups), k)
	}
	out := make([][]string, k)
	for i, g := range groups {
		for _, a := range strings.Split(g, ",") {
			if a = strings.TrimSpace(a); a != "" {
				out[i] = append(out[i], a)
			}
		}
	}
	return out, nil
}

// runReplica is the replica role: mirror one primary shard server over
// the snapshot resolution and re-serve it read-only behind the same
// wire surface, so routers can mirror it beside its primary.
func runReplica(primary, addr, addrFile string, connectTimeout, pollInterval, reqTimeout, shutdownTimeout time.Duration, inj *faultinject.Injector) error {
	log.Printf("following primary %s...", primary)
	start := time.Now()
	rs, err := transport.NewReplica(context.Background(), primary, transport.ReplicaConfig{
		Client:         transport.ClientConfig{PollInterval: pollInterval, RequestTimeout: reqTimeout},
		ConnectTimeout: connectTimeout,
	})
	if err != nil {
		return err
	}
	log.Printf("shard %d mirrored at generation %d in %v", rs.Shard(), rs.Gen(), time.Since(start).Round(time.Millisecond))
	httpSrv := newHTTPServer(rs.Handler(), inj, 0)
	// Drain order mirrors the shard server: advertise draining first so
	// replica sets route new reads elsewhere, let in-flight reads finish,
	// then stop the follow poller.
	return serveUntilSignal(httpSrv, addr, addrFile, shutdownTimeout, rs.Close,
		func() { rs.SetDraining(true) })
}

// runRouter is the multi-process router role: dial the shard servers,
// assemble a remote-backed provider, and serve the public API over it.
// The graph lives in the shard processes; -in is accepted but unused
// beyond a consistency log line.
func runRouter(cfg server.Config, addrs []string, replicas [][]string, shardsFlag int, in, addr, addrFile string, connectTimeout, pollInterval, reqTimeout time.Duration, shutdownTimeout time.Duration, inj *faultinject.Injector) error {
	if shardsFlag > 1 && shardsFlag != len(addrs) {
		return fmt.Errorf("-shards %d disagrees with %d -shard-addrs", shardsFlag, len(addrs))
	}
	if in != "" {
		log.Printf("router role: -in %s ignored (shard servers own the graph)", in)
	}
	nrep := 0
	for _, g := range replicas {
		nrep += len(g)
	}
	log.Printf("dialing %d shard servers (+%d replicas)...", len(addrs), nrep)
	start := time.Now()
	rt, err := transport.Dial(context.Background(), addrs, transport.Options{
		Client:         transport.ClientConfig{PollInterval: pollInterval, RequestTimeout: reqTimeout},
		ConnectTimeout: connectTimeout,
		MaxPending:     cfg.MaxPendingMutations,
		Replicas:       replicas,
	})
	if err != nil {
		return err
	}
	log.Printf("%d shard mirrors ready in %v", len(addrs)+nrep, time.Since(start).Round(time.Millisecond))
	srv, err := server.NewWithProvider(rt, cfg)
	if err != nil {
		rt.Close()
		return err
	}
	httpSrv := newHTTPServer(srv.Handler(), inj, cfg.RequestTimeout+10*time.Second)
	return serveUntilSignal(httpSrv, addr, addrFile, shutdownTimeout, srv.Close, nil)
}

// runShardServer is the shard-server role: boot this process's shard
// (persist.OpenShard), host it behind the wire protocol, and drain
// mutations before shutting down.
func runShardServer(cfg server.Config, opts persist.Options, nodes persist.BootNodes, shardIdx, k int, addr, addrFile string, shutdownTimeout time.Duration, inj *faultinject.Injector) error {
	// Each shard process owns a per-shard subdirectory, so K processes
	// can share one -data-dir value.
	if opts.Dir != "" {
		opts.Dir = filepath.Join(opts.Dir, fmt.Sprintf("shard-%d", shardIdx))
	}
	opts.Shard, opts.Shards = shardIdx, k
	ps, err := persist.OpenShard(opts, cfg.ShardConfig(), nodes, log.Printf)
	if err != nil {
		return err
	}
	if ps.Recovered {
		logRecoveryDetail(fmt.Sprintf("shard %d ", shardIdx), ps.Store)
	}
	ss := transport.NewShardServer(ps.Worker, transport.ServerConfig{
		GlobalNodes: ps.GlobalNodes, MaxNodes: ps.MaxNodes, OnMapChange: ps.OnMapChange,
	})
	// No write timeout: flush responses block until the rebuild
	// publishes, bounded by the router's request deadline instead.
	httpSrv := newHTTPServer(ss.Handler(), inj, 0)
	closeFn := func() {
		if err := ps.Close(); err != nil {
			log.Printf("persist: sealing final segment: %v", err)
		}
	}
	// Drain order: refuse new mutations first (503 "closed", the router
	// sheds load), let in-flight applies/flushes finish with the worker
	// still running, then stop the worker and seal.
	return serveUntilSignal(httpSrv, addr, addrFile, shutdownTimeout, closeFn,
		func() { ss.SetDraining(true) })
}

// serveUntilSignal runs the HTTP server on an explicit listener
// (reporting the bound address, optionally to -addr-file, so scripts
// can use :0), then drains gracefully on SIGINT/SIGTERM: preShutdown
// (when set) gates new work, in-flight requests drain within the
// budget, and closeFn stops the background workers.
func serveUntilSignal(httpSrv *http.Server, addr, addrFile string, shutdownTimeout time.Duration, closeFn func(), preShutdown func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving on %s", ln.Addr())
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Print("shutting down, draining in-flight requests...")
	if preShutdown != nil {
		preShutdown()
	} else {
		// Public-API roles stop their refresh workers first: new
		// mutations are refused while in-flight reads keep answering
		// from the last published snapshot.
		closeFn()
		closeFn = nil
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	err = httpSrv.Shutdown(drainCtx)
	if closeFn != nil {
		closeFn()
	}
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Print("bye")
	return <-errCh
}

// logRecoveryDetail is the second line of a warm boot's log, written
// once the boot seal has had its turn: how many of the tail's published
// generations were read back from their logged cover patches and how
// many the engine derived again, and whether the boot sealed a segment
// (it does not when the log already describes the recovered generation
// completely — see docs/PERSISTENCE.md, Recovery step 4).
func logRecoveryDetail(who string, store *persist.Store) {
	st := store.Stats()
	seal := "not needed"
	if !st.LastSegmentAt.IsZero() {
		seal = "ran"
	}
	log.Printf("%srecovery folded %d publishes from the log and derived %d; boot seal %s",
		who, st.Recovered.PatchedPublishes, st.Recovered.DerivedPublishes, seal)
}

// errMissingIn is the error of a boot that needs the input graph and
// was given none.
var errMissingIn = errors.New("missing required -in graph file")

// bootNodes resolves the two node counts a data-bearing role boots
// with — the node count of the input graph the deployment was
// bootstrapped from, and the growth ceiling — and parses -in only when
// the data directory cannot answer: seg is the segment recovered from
// it (nil without a -data-dir or on an empty one), and a segment that
// records global_nodes makes the directory authoritative, so the input
// file is not opened and g is nil. One log line says which happened.
//
// The ceiling never shrinks across a restart: -max-nodes -1 (auto, 8x
// the input graph at bootstrap) reuses the persisted ceiling, and an
// explicit value below it is raised to it.
func bootNodes(in string, maxNodesFlag int, seg *persist.Segment) (g *graph.Graph, globalNodes, maxNodes int, err error) {
	if seg != nil && seg.GlobalNodes > 0 {
		log.Printf("boot: serving the state in %s; input graph not read", filepath.Dir(seg.Path))
		return nil, seg.GlobalNodes, max(maxNodesFlag, seg.MaxNodes), nil
	}
	if in == "" {
		return nil, 0, 0, errMissingIn
	}
	if seg != nil {
		log.Printf("boot: %s predates global_nodes; reading -in %s for the node count", seg.Path, in)
	} else {
		log.Printf("boot: no recovered state; reading -in %s", in)
	}
	if g, err = loadGraph(in); err != nil {
		return nil, 0, 0, err
	}
	log.Printf("loaded graph: %d nodes, %d edges", g.N(), g.M())
	maxNodes = resolveMaxNodes(maxNodesFlag, g.N())
	if seg != nil {
		maxNodes = max(maxNodes, seg.MaxNodes)
	}
	return g, g.N(), maxNodes, nil
}

// resolveMaxNodes turns the -max-nodes flag into a concrete cap:
// negative means "auto" (8x the initial graph, so growth works out of
// the box without being unbounded), 0 keeps the node set fixed, and a
// positive value is used as-is.
func resolveMaxNodes(flagVal, n int) int {
	if flagVal >= 0 {
		return flagVal
	}
	return 8 * n
}

func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.ReadAuto(f)
	if err != nil {
		return nil, fmt.Errorf("reading graph %s: %w", path, err)
	}
	return g, nil
}

func loadCover(path string) (*cover.Cover, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cv, err := cover.Read(f)
	if err != nil {
		return nil, fmt.Errorf("reading cover %s: %w", path, err)
	}
	return cv, nil
}
