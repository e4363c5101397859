// Package server implements the HTTP query service behind the ocad
// daemon: the paper's community *search* served interactively over a
// graph that may keep changing. It loads a graph, computes (or is
// handed) an overlapping community cover, builds the inverted
// node→community index, and answers
//
//	GET  /healthz                    liveness + refresh state (never blocks)
//	GET  /v1/cover/stats             cover-wide overlap statistics
//	GET  /v1/cover/export            NDJSON streaming bulk export
//	GET  /v1/node/{id}/communities   membership lookup via the index
//	POST /v1/nodes/communities       batch lookup, one snapshot for all ids
//	POST /v1/search                  on-demand seeded community search
//	POST /v1/edges                   queue graph mutations for refresh
//
// The served state lives in a generation-numbered immutable
// refresh.Snapshot behind an atomic pointer: every handler loads the
// snapshot once and answers the whole request from it, so any number of
// concurrent readers proceed lock-free and each response is internally
// consistent with exactly one generation. Mutations posted to /v1/edges
// are queued to a background refresh.Worker that rebuilds the graph
// copy-on-write, re-runs OCA (warm-started from unaffected communities)
// and publishes the next generation — readers never block on a rebuild.
// Seeded searches draw reusable search.State buffers from a bounded
// pool (capped at SearchWorkers in-flight searches); states bound to a
// superseded graph generation are replaced lazily at checkout. Search
// results are additionally memoized in a generation-keyed LRU cache
// with singleflight coalescing and publish-time carry-forward (see
// cache.go), so hot seeds answer without consuming pool workers.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/refresh"
	"repro/internal/resilience"
	"repro/internal/search"
	"repro/internal/shard"
)

// Config tunes a Server. The zero value serves with the paper's OCA
// defaults, an eagerly built cover, GOMAXPROCS search workers and a
// 30-second request deadline.
type Config struct {
	// OCA configures the batch run that builds the served cover and
	// supplies defaults (c, neighbor probability, step caps) for
	// per-request searches and background refresh re-runs.
	OCA core.Options
	// Lazy delays the OCA run until the first request that needs the
	// cover; /healthz and /v1/search never wait for a lazy cover.
	Lazy bool
	// SearchWorkers bounds concurrent /v1/search searches; each worker
	// owns one reusable search.State. Default runtime.GOMAXPROCS(0).
	SearchWorkers int
	// RequestTimeout is the per-request deadline enforced by Handler.
	// Default 30s.
	RequestTimeout time.Duration
	// MaxRequestBody caps the /v1/search, /v1/edges and batch-lookup
	// body sizes. Default 1 MiB.
	MaxRequestBody int64
	// MaxBatchIDs caps ids answered per batch lookup; longer requests
	// are clamped (and flagged), not rejected. Default 10000.
	MaxBatchIDs int
	// RefreshDebounce is how long queued mutations coalesce before a
	// rebuild. Default 50ms (refresh.Config's default).
	RefreshDebounce time.Duration
	// MaxPendingMutations caps the refresh backlog; /v1/edges sheds
	// load with 503 beyond it. Default 1<<20 operations.
	MaxPendingMutations int
	// DisableWarmStart forces cold OCA re-runs on refresh instead of
	// carrying communities untouched by the mutations.
	DisableWarmStart bool
	// Shards partitions the graph and cover across K node-disjoint
	// shards behind a fan-out router (modulo-K node assignment, ghost
	// halos for boundary neighborhoods, one refresh worker per shard).
	// Values below 2 serve the original single-snapshot path. Sharding
	// is incompatible with Lazy and with precomputed covers.
	Shards int
	// MaxNodes, when larger than the graph, lets POST /v1/edges grow
	// the node set: an added edge naming an id in [N, MaxNodes) extends
	// the graph at the next rebuild. 0 keeps the node set fixed.
	MaxNodes int
	// RederiveCAfter re-derives c = -1/λmin during a rebuild once the
	// cumulative applied mutations exceed this fraction of the graph's
	// edges (per shard when sharded). 0 pins the startup value. Ignored
	// when OCA.C pins c explicitly.
	RederiveCAfter float64
	// IncrementalThreshold enables the dirty-region rebuild engine
	// (refresh.Config.IncrementalThreshold): mutation batches touching
	// at most this fraction of the served communities rebuild
	// incrementally (or skip OCA entirely when they touch none). 0 —
	// the default — keeps every rebuild on the full path. Per shard
	// when sharded.
	IncrementalThreshold float64
	// Persist, when set, makes the served state durable: the first
	// generation boots the store (persist.Store.Boot), every accepted
	// /v1/edges batch is logged before it is acknowledged, every publish
	// is logged, and Close seals a final segment — a clean restart
	// replays nothing — and closes the store. Open it with
	// persist.OpenSingle, which recovers. Unsupported with in-process
	// sharding (Shards > 1) and the router role: per-shard durability
	// lives in the shard server processes.
	Persist *persist.Store
	// SearchCacheSize bounds the generation-keyed /v1/search result
	// cache, in entries. 0 means the default (4096); negative disables
	// caching entirely — every request then runs its own search and no
	// singleflight coalescing happens.
	SearchCacheSize int
	// SearchCacheRho is the ρ-similarity floor for the cache's
	// carry-forward spot checks: on an incremental or fastpath publish,
	// carried entries are validated by recomputing a sample fresh and
	// comparing with metrics.Rho; below the floor the carry is dropped.
	// 0 means the default (0.95); values above 1 clamp to 1.
	SearchCacheRho float64
}

// Server answers community-search queries over one evolving graph. It
// is the HTTP layer only: the served state — graph, refresh workers,
// generations — lives behind its SnapshotProvider. Construct with New,
// NewWithCover, NewWithSnapshot or NewWithProvider; all methods are safe
// for concurrent use. Call Close to stop the background refresh workers.
type Server struct {
	cfg     Config
	stepCap int // ceiling on per-request search step budgets

	// pool bounds in-flight searches at SearchWorkers; each checkout
	// keeps one reusable state per shard, so interleaved searches across
	// shards don't thrash the O(n)-to-build buffers (slots start nil
	// and are allocated on first use). Slots are generation-stamped:
	// graph-pointer identity alone cannot tell a state built for a
	// superseded generation apart when a publish reuses the graph (the
	// lazy gen-0 → gen-1 case), so checkout compares both.
	pool      chan []poolSlot
	poolWidth int          // states per checkout: one per shard
	streams   atomic.Int64 // rng stream counter for unseeded searches

	// cache is the generation-keyed seeded-search result cache with
	// singleflight coalescing (nil when disabled by config).
	cache *searchCache

	// sp is the seam every handler resolves its views through.
	sp      SnapshotProvider
	metrics *httpMetrics
}

// New returns a Server that obtains its cover by running OCA on g —
// at construction unless cfg.Lazy is set. With cfg.Shards > 1 the
// graph is partitioned and every shard's cover is built eagerly.
func New(g *graph.Graph, cfg Config) (*Server, error) {
	if cfg.Shards > 1 {
		return newSharded(g, cfg)
	}
	return newLocal(&localProvider{g: g}, cfg, cfg.Lazy)
}

// newLocal finishes a single-graph construction: wire the provider to
// the config and the search cache, resolve c, build generation 1
// unless lazy.
func newLocal(lp *localProvider, cfg Config, lazy bool) (*Server, error) {
	cache := cacheFromConfig(cfg)
	lp.cfg = cfg
	if cache != nil {
		lp.onSwap = cache.onPublish
	}
	if err := lp.start(lazy); err != nil {
		return nil, err
	}
	return newServer(lp, cfg, cache), nil
}

// newSharded builds the fan-out topology: a shard.Router owning one
// refresh worker per shard.
func newSharded(g *graph.Graph, cfg Config) (*Server, error) {
	if cfg.Lazy {
		return nil, fmt.Errorf("server: lazy cover builds are not supported with %d shards", cfg.Shards)
	}
	if cfg.Persist != nil {
		// In-process sharding routes mutations through Router.Apply, which
		// grows each shard's translation table out of band — growth the WAL
		// cannot replay. Durability is a shard-server deployment feature.
		return nil, fmt.Errorf("server: persistence is not supported with %d in-process shards; run shard servers with their own data directories", cfg.Shards)
	}
	rcfg := cfg.ShardConfig()
	cache := cacheFromConfig(cfg)
	if cache != nil {
		// Each shard worker announces its publishes so the cache can
		// prune that shard's superseded entries and carry survivors
		// forward across incremental rebuilds.
		rcfg.OnSwap = cache.onPublish
	}
	rt, err := shard.NewRouter(g, cfg.Shards, rcfg)
	if err != nil {
		return nil, fmt.Errorf("server: building shard router: %w", err)
	}
	return newServer(rt, cfg, cache), nil
}

// NewWithProvider returns a Server that fronts an externally
// constructed SnapshotProvider — the multi-process router role, where
// transport.Dial assembled a shard.Router over remote shard backends.
// Every request resolves through the provider, and Close closes it
// (stopping mirror pollers; the shard processes keep running).
func NewWithProvider(sp SnapshotProvider, cfg Config) (*Server, error) {
	if sp == nil {
		return nil, errors.New("server: nil provider")
	}
	if cfg.Persist != nil {
		return nil, errors.New("server: persistence belongs on the shard servers, not the router role")
	}
	return newServer(sp, cfg, cacheFromConfig(cfg)), nil
}

// NewWithCover returns a Server that serves a precomputed cover (for
// example one loaded from an oca-run output file) instead of running
// OCA itself. The inner-product parameter for /v1/search is still
// cfg.OCA.C, or derived from the spectrum — lazily, on the first
// request that needs it, so serving a precomputed cover never pays for
// a whole-graph eigenvalue computation at startup. Mutations posted to
// /v1/edges re-run OCA, replacing the preloaded cover from the second
// generation on.
func NewWithCover(g *graph.Graph, cv *cover.Cover, cfg Config) (*Server, error) {
	if cfg.Shards > 1 {
		return nil, fmt.Errorf("server: precomputed covers are not supported with %d shards (partitioning a cover loses boundary context)", cfg.Shards)
	}
	// Fail fast on a cover/graph mismatch: index.Build would silently
	// drop out-of-range members, serving member lists whose own lookups
	// 404 and stats where coverage exceeds 1.
	for ci, c := range cv.Communities {
		for _, v := range c {
			if v < 0 || int(v) >= g.N() {
				return nil, fmt.Errorf("server: cover community %d contains node %d outside graph range [0, %d)", ci, v, g.N())
			}
		}
	}
	return newLocal(&localProvider{g: g, preCv: cv}, cfg, false)
}

// NewWithSnapshot returns a Server that serves an already-built
// snapshot — the recovery path: persist.OpenSingle hands back the
// pre-shutdown state and the server starts from it without an OCA run.
// Generation and sequence numbering continue from the snapshot's own,
// so the restart is invisible to generation-tracking clients. The
// snapshot's inner-product parameter is reused for searches unless
// cfg.OCA.C overrides it explicitly.
func NewWithSnapshot(snap *refresh.Snapshot, cfg Config) (*Server, error) {
	if cfg.Shards > 1 {
		return nil, fmt.Errorf("server: recovered snapshots are not supported with %d in-process shards", cfg.Shards)
	}
	if snap == nil || snap.Graph == nil || snap.Cover == nil {
		return nil, errors.New("server: nil or incomplete snapshot")
	}
	return newLocal(&localProvider{g: snap.Graph, restored: snap}, cfg, false)
}

func newServer(sp SnapshotProvider, cfg Config, cache *searchCache) *Server {
	if cfg.SearchWorkers <= 0 {
		cfg.SearchWorkers = defaultWorkers()
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxRequestBody <= 0 {
		cfg.MaxRequestBody = 1 << 20
	}
	if cfg.MaxBatchIDs <= 0 {
		cfg.MaxBatchIDs = 10000
	}
	s := &Server{cfg: cfg, sp: sp, cache: cache, poolWidth: sp.NumShards(), metrics: newHTTPMetrics()}
	// Requests may lower the step budget but never raise it past the
	// server's own cap: searches are not context-cancellable, so a giant
	// finite budget would hold a pool worker past the deadline just like
	// a negative ("unlimited") one.
	s.stepCap = cfg.OCA.MaxSteps
	if s.stepCap <= 0 {
		s.stepCap = 100000 // core's MaxSteps default
	}
	// Pool slots start nil; states are allocated on first checkout so a
	// lookup-only deployment never pays for SearchWorkers × O(maxDegree)
	// queue buffers.
	s.pool = make(chan []poolSlot, cfg.SearchWorkers)
	for i := 0; i < cfg.SearchWorkers; i++ {
		s.pool <- nil
	}
	return s
}

func defaultWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 0 {
		return n
	}
	return 1
}

// Close stops the background refresh worker(s) and drops queued
// mutations. Read endpoints keep serving the last published snapshot;
// /v1/edges fails afterwards. Safe to call multiple times.
func (s *Server) Close() { s.sp.Close() }

// peekViews returns the provider's views without ever forcing a lazy
// cover build: the published generation when there is one, otherwise
// the local provider's construction-time graph as a generation-0 view.
// The observability endpoints — and the response-shape decision of
// handlers that hold no view of their own — read it.
func (s *Server) peekViews() []shard.View {
	if lp, ok := s.sp.(*localProvider); ok && !lp.Ready() {
		return []shard.View{lp.unbuiltView()}
	}
	views, _ := s.sp.Views()
	return views
}

// shardedShape reports whether responses assembled from these views
// take the sharded shape: shard-scoped community ids and a per-shard
// vector. It is a property of the views — do they translate ids — not
// of the shard count, so a one-shard router answers like any router.
func shardedShape(views []shard.View) bool {
	return len(views) > 0 && views[0].Sharded()
}

// Cover returns the currently served cover, forcing a lazy build if
// necessary. The returned cover must not be mutated. On a sharded
// server there is no single global cover — use Views via the HTTP API
// instead — so Cover returns an error.
func (s *Server) Cover() (*cover.Cover, error) {
	views, err := s.sp.Views()
	if err != nil {
		return nil, err
	}
	if shardedShape(views) {
		return nil, fmt.Errorf("server: no single cover with %d shards; covers are per shard", len(views))
	}
	return views[0].Snap.Cover, nil
}

// Generation returns the currently served snapshot generation (0 until
// the first cover is built; the highest shard generation when sharded).
func (s *Server) Generation() uint64 {
	return shard.VectorOf(s.peekViews()).Max()
}

// route is one entry of the serving mux: the registration pattern plus
// how it is mounted (instrumented behind the request deadline, or
// streaming outside it).
type route struct {
	pattern    string
	handler    func(*Server) http.HandlerFunc
	streaming  bool // mounted outside the TimeoutHandler (NDJSON export)
	bareMetric bool // not instrumented (the metrics endpoint itself)
}

// routeTable is the manifest of every route Handler registers. Routes
// derives the public list docs/PROTOCOL.md must stay in sync with;
// Handler registers exactly these patterns, so manifest and mux cannot
// drift apart.
var routeTable = []route{
	{pattern: "GET /healthz", handler: func(s *Server) http.HandlerFunc { return s.handleHealthz }},
	{pattern: "GET /v1/cover/stats", handler: func(s *Server) http.HandlerFunc { return s.handleStats }},
	{pattern: "GET /v1/cover/export", handler: func(s *Server) http.HandlerFunc { return s.handleExport }, streaming: true},
	{pattern: "GET /v1/node/{id}/communities", handler: func(s *Server) http.HandlerFunc { return s.handleNodeCommunities }},
	{pattern: "POST /v1/nodes/communities", handler: func(s *Server) http.HandlerFunc { return s.handleBatchCommunities }},
	{pattern: "POST /v1/search", handler: func(s *Server) http.HandlerFunc { return s.handleSearch }},
	{pattern: "POST /v1/edges", handler: func(s *Server) http.HandlerFunc { return s.handleEdges }},
	// Mounted outside the TimeoutHandler: a slice transfer may
	// legitimately outlast the read-path request deadline, and cutting
	// it at the deadline would force a needless abort.
	{pattern: "POST /v1/admin/rebalance", handler: func(s *Server) http.HandlerFunc { return s.handleRebalance }, streaming: true},
	{pattern: "POST /v1/admin/halo-refresh", handler: func(s *Server) http.HandlerFunc { return s.handleHaloRefresh }, streaming: true},
	{pattern: "GET /debug/metrics", handler: func(s *Server) http.HandlerFunc { return s.handleDebugMetrics }, bareMetric: true},
}

// Routes returns every (method, pattern) the service registers — the
// public API manifest the documentation sync test compares against
// docs/PROTOCOL.md.
func Routes() []string {
	out := make([]string, len(routeTable))
	for i, rt := range routeTable {
		out[i] = rt.pattern
	}
	return out
}

// Handler returns the service's http.Handler: all routes wrapped with
// per-endpoint request metrics and the per-request deadline, except
// the NDJSON export, which streams (http.TimeoutHandler buffers whole
// responses, so it would turn the export into a giant in-memory blob
// and defeat mid-stream backpressure).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	root := http.NewServeMux()
	for _, rt := range routeTable {
		h := rt.handler(s)
		switch {
		case rt.streaming:
			root.HandleFunc(rt.pattern, s.metrics.instrument(rt.pattern, h))
		case rt.bareMetric:
			mux.HandleFunc(rt.pattern, h)
		default:
			mux.HandleFunc(rt.pattern, s.metrics.instrument(rt.pattern, h))
		}
	}
	th := http.TimeoutHandler(mux, s.cfg.RequestTimeout, `{"error":"request timed out"}`)
	root.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// TimeoutHandler writes its timeout body with no Content-Type;
		// pre-setting it here keeps error responses uniformly JSON (the
		// handlers overwrite the header on every non-timeout path).
		w.Header().Set("Content-Type", "application/json")
		th.ServeHTTP(w, r)
	}))
	return root
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// healthzResponse is the /healthz body.
type healthzResponse struct {
	Status     string `json:"status"`
	Nodes      int    `json:"nodes"`
	Edges      int64  `json:"edges"`
	CoverReady bool   `json:"cover_ready"`
	// Generation is the served snapshot's generation (0 until built).
	Generation uint64 `json:"generation"`
	// PendingMutations counts queued edge mutations not yet reflected
	// in any snapshot; with Rebuilding it is the staleness signal.
	PendingMutations int  `json:"pending_mutations"`
	Rebuilding       bool `json:"rebuilding"`
	// SnapshotAgeMillis is how long ago the served generation was
	// published.
	SnapshotAgeMillis int64 `json:"snapshot_age_millis"`
	// LastRebuildMillis is the build duration of the served generation.
	LastRebuildMillis int64  `json:"last_rebuild_millis"`
	LastRefreshError  string `json:"last_refresh_error,omitempty"`
	// Epoch (sharded servers only) is the partition-map epoch the
	// router currently routes under; Rebalance carries the migration
	// counters. Both absent on providers that cannot rebalance.
	Epoch     uint64                 `json:"epoch,omitempty"`
	Rebalance *shard.RebalanceStatus `json:"rebalance,omitempty"`
	// Shards (sharded servers only) is the per-shard state vector.
	Shards []healthShard `json:"shards,omitempty"`
	// Requests summarizes per-endpoint traffic (full histograms at
	// GET /debug/metrics).
	Requests *requestsSummary `json:"requests,omitempty"`
	// Persistence (servers with a data directory only) is the durability
	// state: retained segments, the live WAL, and what startup recovery
	// found. A non-empty LastPersistError (Stats.LastError: an async
	// publish-record or segment-write failure) flips Status to
	// "degraded".
	Persistence      *persist.Stats `json:"persistence,omitempty"`
	LastPersistError string         `json:"last_persist_error,omitempty"`
	// SearchCache summarizes the seeded-search result cache: occupancy
	// and the hit/coalesce/carry-forward counters (absent when caching
	// is disabled). The same counters are exported by /debug/metrics.
	SearchCache *searchCacheStats `json:"search_cache,omitempty"`
}

// healthShard is one shard's entry in the /healthz vector. Nodes and
// Edges count what the shard owns (ghost halos excluded), so they sum
// to the global dimensions. Error marks the shard degraded: its
// backend is unreachable and the other fields describe its last
// mirrored state.
type healthShard struct {
	Shard             int     `json:"shard"`
	Generation        uint64  `json:"generation"`
	Nodes             int     `json:"nodes"`
	Edges             int64   `json:"edges"`
	C                 float64 `json:"c,omitempty"`
	PendingMutations  int     `json:"pending_mutations"`
	Rebuilding        bool    `json:"rebuilding"`
	SnapshotAgeMillis int64   `json:"snapshot_age_millis"`
	LastRebuildMillis int64   `json:"last_rebuild_millis"`
	LastRefreshError  string  `json:"last_refresh_error,omitempty"`
	Error             string  `json:"error,omitempty"`
	// Replicas (replicated routers only) is the shard's replica-set
	// member vector: per-member generation, lag, load and health.
	Replicas []shard.ReplicaStat `json:"replicas,omitempty"`
	// Resilience (remote backends only) is the shard's breaker/retry/
	// deadline counter block; replicated shards aggregate their members.
	Resilience *resilience.Stats `json:"resilience,omitempty"`
}

// handleHealthz folds every shard's view and worker status into one
// liveness answer (plus, in the sharded shape, the per-shard vector).
// Each shard contributes one atomic snapshot (or mirror) load; nothing
// blocks on rebuilds or forces a lazy build. Any degraded shard flips
// the top-level status to "degraded" with the transport error on that
// shard's entry.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Every snapshot-derived field of a shard is read from ONE view, so a
	// swap between loads cannot pair generation N with generation N+1's
	// dimensions. Statuses supply only the queue-side fields, which
	// belong to no generation.
	views := s.peekViews()
	statuses := s.sp.Statuses()
	sharded := shardedShape(views)
	var reps []*shard.ReplicaSetStats
	if rp, ok := s.sp.(interface {
		ReplicaStats() []*shard.ReplicaSetStats
	}); ok {
		reps = rp.ReplicaStats()
	}
	var res []*resilience.Stats
	if rp, ok := s.sp.(interface {
		ResilienceStats() []*resilience.Stats
	}); ok {
		res = rp.ResilienceStats()
	}
	resp := healthzResponse{
		Status:     "ok",
		CoverReady: s.sp.Ready(),
		Requests:   s.metrics.summary(),
	}
	if s.cache != nil {
		cs := s.cache.stats()
		resp.SearchCache = &cs
	}
	if rb, ok := s.sp.(Rebalancer); ok {
		st := rb.RebalanceStatus()
		resp.Epoch = st.Epoch
		resp.Rebalance = &st
	}
	if p := s.cfg.Persist; p != nil {
		st := p.Stats()
		resp.Persistence, resp.LastPersistError = &st, st.LastError
		if resp.LastPersistError != "" {
			resp.Status = "degraded"
		}
	}
	// In the sharded shape refresh errors name their shard.
	refreshErr := func(shardID int, msg string) string {
		if sharded {
			return fmt.Sprintf("shard %d: %s", shardID, msg)
		}
		return msg
	}
	shards := make([]healthShard, len(views))
	for i, v := range views {
		if v.Err != nil {
			resp.Status = "degraded"
		}
		hs := healthShard{Shard: v.Shard, Error: errString(v.Err)}
		if i < len(reps) && reps[i] != nil {
			hs.Replicas = reps[i].Members
		}
		if i < len(res) {
			hs.Resilience = res[i]
		}
		snap := v.Snap
		if snap == nil {
			// Never mirrored: the error is all there is to report.
			shards[i] = hs
			if resp.LastRefreshError == "" && v.Err != nil {
				resp.LastRefreshError = refreshErr(v.Shard, v.Err.Error())
			}
			continue
		}
		own := v.Owned()
		hs.Generation, hs.Nodes, hs.Edges, hs.C = snap.Gen, own.OwnedNodes, own.OwnedEdges, snap.C
		if snap.Gen > 0 {
			// Queue and age fields exist once a generation is published
			// (not on a lazy provider's generation-0 view).
			st := statuses[i].Status
			hs.PendingMutations = st.Pending
			hs.Rebuilding = st.Rebuilding
			hs.SnapshotAgeMillis = time.Since(snap.BuiltAt).Milliseconds()
			hs.LastRebuildMillis = snap.BuildTime.Milliseconds()
			hs.LastRefreshError = st.LastErr
		}
		shards[i] = hs
		resp.Nodes += hs.Nodes
		resp.Edges += hs.Edges
		if hs.Generation > resp.Generation {
			resp.Generation = hs.Generation
		}
		resp.PendingMutations += hs.PendingMutations
		resp.Rebuilding = resp.Rebuilding || hs.Rebuilding
		if hs.SnapshotAgeMillis > resp.SnapshotAgeMillis {
			resp.SnapshotAgeMillis = hs.SnapshotAgeMillis
		}
		if hs.LastRebuildMillis > resp.LastRebuildMillis {
			resp.LastRebuildMillis = hs.LastRebuildMillis
		}
		if hs.LastRefreshError != "" && resp.LastRefreshError == "" {
			resp.LastRefreshError = refreshErr(v.Shard, hs.LastRefreshError)
		}
	}
	if sharded {
		resp.Shards = shards
	}
	writeJSON(w, http.StatusOK, resp)
}

// statsResponse is the /v1/cover/stats body.
type statsResponse struct {
	Nodes            int     `json:"nodes"`
	Edges            int64   `json:"edges"`
	Generation       uint64  `json:"generation"`
	C                float64 `json:"c,omitempty"` // absent until first derived (preloaded covers)
	Communities      int     `json:"communities"`
	CoveredNodes     int     `json:"covered_nodes"`
	Coverage         float64 `json:"coverage"`
	OverlapNodes     int     `json:"overlap_nodes"`
	MinSize          int     `json:"min_size"`
	MaxSize          int     `json:"max_size"`
	MeanSize         float64 `json:"mean_size"`
	MeanMembership   float64 `json:"mean_membership"`
	MaxMembership    int     `json:"max_membership"`
	SeedsTried       int     `json:"seeds_tried,omitempty"`
	Steps            int64   `json:"steps,omitempty"`
	RawCommunities   int     `json:"raw_communities,omitempty"`
	BuildMillis      int64   `json:"build_millis"`
	PendingMutations int     `json:"pending_mutations"`
	// RebuildMode is how the served generation was computed (full /
	// incremental / fastpath); DirtyNodes is the dirty-region size of an
	// incremental rebuild. Sharded servers quote the most recently
	// rebuilt shard's mode here and the per-shard values below.
	RebuildMode string `json:"rebuild_mode,omitempty"`
	DirtyNodes  int    `json:"dirty_nodes,omitempty"`
	// Shards (sharded servers only) carries each shard's generation and
	// active c — shards derive and re-derive c independently, so the
	// parameter is per shard, not global.
	Shards []statsShard `json:"shards,omitempty"`
}

// statsShard is one shard's entry in the /v1/cover/stats vector.
// Error marks the shard degraded; its other fields then describe the
// last mirrored generation.
type statsShard struct {
	Shard            int     `json:"shard"`
	Generation       uint64  `json:"generation"`
	C                float64 `json:"c,omitempty"`
	Communities      int     `json:"communities"`
	CoveredNodes     int     `json:"covered_nodes"`
	OverlapNodes     int     `json:"overlap_nodes"`
	PendingMutations int     `json:"pending_mutations"`
	BuildMillis      int64   `json:"build_millis"`
	RebuildMode      string  `json:"rebuild_mode,omitempty"`
	DirtyNodes       int     `json:"dirty_nodes,omitempty"`
	Error            string  `json:"error,omitempty"`
}

// handleStats aggregates per-shard cover statistics. Coverage counts
// only owned nodes (each global node exactly once); size distributions
// describe the served communities, whose member lists may include ghost
// copies of boundary nodes. Sizes aggregate from the integer membership
// totals, so one view's aggregate is exactly that view's own statistics.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	views, err := s.sp.Views()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building cover: %v", err)
		return
	}
	statuses := s.sp.Statuses()
	sharded := shardedShape(views)
	resp := statsResponse{MinSize: -1}
	shards := make([]statsShard, len(views))
	var (
		totalMembers, ownedMembers int64
		latest                     *refresh.Snapshot // most recently rebuilt shard
	)
	for i, v := range views {
		if v.Snap == nil {
			shards[i] = statsShard{Shard: v.Shard, Error: errString(v.Err)}
			continue
		}
		snap, own, st := v.Snap, v.Owned(), statuses[i].Status
		entry := statsShard{
			Shard:            v.Shard,
			Error:            errString(v.Err),
			Generation:       snap.Gen,
			C:                snap.C,
			Communities:      snap.Cover.Len(),
			CoveredNodes:     own.CoveredOwned,
			OverlapNodes:     own.OverlapOwned,
			PendingMutations: st.Pending,
			BuildMillis:      snap.BuildTime.Milliseconds(),
			RebuildMode:      snap.RebuildMode,
			DirtyNodes:       snap.DirtyNodes,
		}
		if latest == nil || snap.BuiltAt.After(latest.BuiltAt) {
			latest = snap
		}
		shards[i] = entry
		resp.Nodes += own.OwnedNodes
		resp.Edges += own.OwnedEdges
		if entry.Generation > resp.Generation {
			resp.Generation = entry.Generation
		}
		resp.Communities += entry.Communities
		resp.CoveredNodes += entry.CoveredNodes
		resp.OverlapNodes += entry.OverlapNodes
		resp.PendingMutations += entry.PendingMutations
		if entry.BuildMillis > resp.BuildMillis {
			resp.BuildMillis = entry.BuildMillis
		}
		cs := snap.Stats
		if cs.Communities > 0 {
			if resp.MinSize == -1 || cs.MinSize < resp.MinSize {
				resp.MinSize = cs.MinSize
			}
			if cs.MaxSize > resp.MaxSize {
				resp.MaxSize = cs.MaxSize
			}
			totalMembers += cs.Memberships
		}
		// Owned-only max: a ghost copy can carry more memberships in a
		// foreign halo than its owning shard serves, and lookups always
		// route to the owner — quote only numbers a lookup can return.
		if own.MaxMembershipOwned > resp.MaxMembership {
			resp.MaxMembership = own.MaxMembershipOwned
		}
		ownedMembers += own.OwnedMemberships
		if snap.Result != nil {
			resp.SeedsTried += snap.Result.SeedsTried
			resp.Steps += snap.Result.Steps
			resp.RawCommunities += snap.Result.RawCommunities
		}
	}
	if resp.MinSize == -1 {
		resp.MinSize = 0
	}
	if latest != nil {
		resp.RebuildMode, resp.DirtyNodes = latest.RebuildMode, latest.DirtyNodes
	}
	if resp.Communities > 0 {
		resp.MeanSize = float64(totalMembers) / float64(resp.Communities)
	}
	if resp.CoveredNodes > 0 {
		resp.MeanMembership = float64(ownedMembers) / float64(resp.CoveredNodes)
	}
	if resp.Nodes > 0 {
		resp.Coverage = float64(resp.CoveredNodes) / float64(resp.Nodes)
	}
	if sharded {
		// Shards derive and re-derive c independently, so the parameter
		// is quoted per shard, not globally.
		resp.Shards = shards
	} else {
		// Never force the spectral derivation just to fill this field;
		// on a preloaded cover c appears once the first search resolves it.
		resp.C = statuses[0].C
	}
	writeJSON(w, http.StatusOK, resp)
}

// communityRef describes one community a node belongs to. On sharded
// servers the id is scoped to its shard (the Shard field); member lists
// are always global node ids.
type communityRef struct {
	ID      int32   `json:"id"`
	Shard   *int    `json:"shard,omitempty"`
	Size    int     `json:"size"`
	Members []int32 `json:"members,omitempty"`
}

// nodeCommunitiesResponse is the /v1/node/{id}/communities body.
type nodeCommunitiesResponse struct {
	Node        int32          `json:"node"`
	Generation  uint64         `json:"generation"`
	Count       int            `json:"count"`
	Communities []communityRef `json:"communities"`
	// Shards (sharded servers only) is the (shard, generation) the
	// answer came from: the node's owning shard.
	Shards shard.GenVector `json:"shards,omitempty"`
}

func (s *Server) handleNodeCommunities(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid node id %q", r.PathValue("id"))
		return
	}
	v := int32(id)
	view, local, ok, err := s.sp.ViewFor(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building cover: %v", err)
		return
	}
	if view.Err != nil {
		// The owning shard is unreachable: an explicit 503, never a
		// silently stale answer (the mirror may be generations behind).
		setRetryAfter(w, time.Second)
		writeError(w, http.StatusServiceUnavailable, "shard %d unavailable: %v", view.Shard, view.Err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "node %d out of range [0, %d)", v, s.sp.NodeBound())
		return
	}
	withMembers := queryBool(r, "members")
	ids := view.Snap.Index.Communities(local)
	resp := nodeCommunitiesResponse{
		Node:        v,
		Generation:  view.Snap.Gen,
		Count:       len(ids),
		Communities: make([]communityRef, len(ids)),
	}
	if view.Sharded() {
		resp.Shards = shard.GenVector{{Shard: view.Shard, Gen: view.Snap.Gen}}
	}
	for i, ci := range ids {
		resp.Communities[i] = communityRefFor(view, ci, withMembers)
	}
	writeJSON(w, http.StatusOK, resp)
}

// communityRefFor renders one community of a view, translating member
// lists to global ids on the sharded path.
func communityRefFor(view shard.View, ci int32, withMembers bool) communityRef {
	c := view.Snap.Cover.Communities[ci]
	ref := communityRef{ID: ci, Size: len(c)}
	if view.Sharded() {
		sh := view.Shard
		ref.Shard = &sh
	}
	if withMembers {
		ref.Members = view.Members(c)
	}
	return ref
}

func queryBool(r *http.Request, key string) bool {
	switch r.URL.Query().Get(key) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// SearchRequest is the /v1/search body. Zero-valued fields fall back to
// the server's OCA options (and, for C, the spectrum-derived value).
type SearchRequest struct {
	// Seed is the node the local search grows from.
	Seed int32 `json:"seed"`
	// C overrides the inner-product parameter for this request.
	C float64 `json:"c,omitempty"`
	// NeighborProb overrides the initial neighbor-inclusion probability.
	NeighborProb float64 `json:"neighbor_prob,omitempty"`
	// MaxSteps overrides the greedy step cap; values above the server's
	// own cap are clamped to it.
	MaxSteps int `json:"max_steps,omitempty"`
	// MaxCommunitySize stops additions at that size when positive.
	MaxCommunitySize int `json:"max_community_size,omitempty"`
	// RNGSeed fixes the randomness; responses with equal RNGSeed and
	// parameters are identical (over the same graph generation). When 0
	// the server picks a fresh stream.
	RNGSeed int64 `json:"rng_seed,omitempty"`
}

// SearchResponse is the /v1/search body. Generation is the snapshot
// generation the search ran over (absent only on a lazy server before
// its first cover build). Shard is set only by sharded servers: the
// search ran over the seed's owning shard's halo graph. Cached marks a
// response served from the generation-keyed result cache — including
// one computed by a concurrent coalesced request — rather than by a
// search this request ran itself.
type SearchResponse struct {
	Seed       int32   `json:"seed"`
	C          float64 `json:"c"`
	Size       int     `json:"size"`
	Fitness    float64 `json:"fitness"`
	Members    []int32 `json:"members"`
	Shard      *int    `json:"shard,omitempty"`
	Generation uint64  `json:"generation,omitempty"`
	Cached     bool    `json:"cached,omitempty"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "invalid search request: %v", err)
		return
	}
	// The search runs over the seed's owning view: its halo graph holds
	// the seed's full neighborhood (cross-shard ghosts included), so the
	// local search behaves as it would unsharded. A lazy provider answers
	// over its construction-time graph without forcing the OCA run —
	// searches need only c, not the cover; the generation stays 0 there,
	// which also disables caching (pre-cover results have no generation
	// to key on or carry forward from).
	var (
		view  shard.View
		local int32
		ok    bool
	)
	// Only the single-graph provider can be unbuilt, or derive a missing
	// c on demand; lp is nil on a router.
	lp, _ := s.sp.(*localProvider)
	if lp != nil && !lp.Ready() {
		view = lp.unbuiltView()
		local, ok = view.Local(req.Seed)
	} else {
		view, local, ok, _ = s.sp.ViewFor(req.Seed)
	}
	if view.Err != nil {
		setRetryAfter(w, time.Second)
		writeError(w, http.StatusServiceUnavailable, "shard %d unavailable: %v", view.Shard, view.Err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "seed %d out of range [0, %d)", req.Seed, s.sp.NodeBound())
		return
	}
	if !searchParamsValid(w, req) {
		return
	}
	c := req.C
	if c == 0 {
		c = view.Snap.C
	}
	if c == 0 {
		// The snapshot carries no parameter: a preloaded cover or
		// unbuilt lazy server derives it now (once); a shard without
		// edges has none to derive.
		if lp == nil {
			writeError(w, http.StatusInternalServerError, "shard %d has no inner-product parameter yet (no edges)", view.Shard)
			return
		}
		var err error
		if c, err = lp.resolveC(); err != nil {
			writeError(w, http.StatusInternalServerError, "computing c: %v", err)
			return
		}
	}
	if c < 0 || c >= 1 {
		// 0 never reaches here — it is the "use the server's c"
		// sentinel — so the effective range is (0, 1).
		writeError(w, http.StatusBadRequest, "c=%g out of range (0, 1)", c)
		return
	}
	s.runSearch(w, r, req, view, local, c)
}

// searchParamsValid rejects out-of-range overrides with a 400 and
// reports whether the request may proceed. Negative means "unlimited"
// in core.Options — never allowed from the network, where an uncapped
// search would hold a pool worker far past the request deadline.
func searchParamsValid(w http.ResponseWriter, req SearchRequest) bool {
	if req.MaxSteps < 0 || req.NeighborProb < 0 || req.MaxCommunitySize < 0 {
		writeError(w, http.StatusBadRequest, "max_steps, neighbor_prob and max_community_size must be non-negative")
		return false
	}
	if req.NeighborProb > 1 {
		writeError(w, http.StatusBadRequest, "neighbor_prob=%g out of range [0, 1]", req.NeighborProb)
		return false
	}
	return true
}

// poolSlot is one shard's reusable search state within a pool
// checkout, stamped with the generation it was built for. The stamp is
// what invalidates the state when a publish reuses the previous graph
// pointer (a lazy server's first cover build serves the construction
// graph as generation 1): Graph() identity alone would keep the stale
// state, and a cached search could then run over buffers sized for a
// superseded snapshot.
type poolSlot struct {
	st  *search.State
	gen uint64
}

// searchOptions resolves the effective core.Options for one request:
// the server's OCA defaults with the request's overrides applied and
// the step budget clamped. The result is part of the cache identity,
// so two requests spelling the same effective parameters differently
// (e.g. an explicit MaxSteps equal to the server cap vs. none) share
// one cache entry.
func (s *Server) searchOptions(req SearchRequest) core.Options {
	opt := s.cfg.OCA
	if req.NeighborProb > 0 {
		opt.NeighborProb = req.NeighborProb
	}
	if req.MaxSteps > 0 {
		opt.MaxSteps = req.MaxSteps
	}
	// Unconditional clamp: neither a request override nor a negative
	// ("unlimited") configured OCA.MaxSteps may exceed the cap here.
	if opt.MaxSteps <= 0 || opt.MaxSteps > s.stepCap {
		opt.MaxSteps = s.stepCap
	}
	if req.MaxCommunitySize > 0 {
		opt.MaxCommunitySize = req.MaxCommunitySize
	}
	return opt
}

// executeSearch checks a state out of the bounded pool and runs one
// greedy local search. It is the only path that consumes a pool
// worker; cache hits and coalesced waiters never reach it. Waiting
// for a slot respects ctx (the request deadline).
func (s *Server) executeSearch(ctx context.Context, g *graph.Graph, maxDeg int, gen uint64, slot int, seed int32, c float64, rngSeed int64, opt core.Options) (cover.Community, float64, error) {
	var slots []poolSlot
	select {
	case slots = <-s.pool:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	if slots == nil {
		slots = make([]poolSlot, s.poolWidth)
	}
	defer func() { s.pool <- slots }()
	ps := &slots[slot]
	if ps.st == nil || ps.st.Graph() != g || ps.gen != gen {
		// First use of the slot's shard entry, or its state is bound to
		// a superseded snapshot (by graph identity or by generation):
		// (re)build it over the one this request saw.
		ps.st = search.NewState(g, maxDeg)
		ps.gen = gen
	}
	rng := rand.New(rand.NewSource(rngSeed))
	community, fitness := core.FindCommunityWith(g, ps.st, seed, c, rng, opt)
	return community, fitness, nil
}

// writeSearchError maps an executeSearch (or coalesced-wait) failure
// to the response the pool wait has always produced: 503s, with the
// client's own cancellation distinguished from real saturation so logs
// don't send operators chasing phantom load.
func writeSearchError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.Canceled) {
		writeError(w, http.StatusServiceUnavailable, "client canceled request")
		return
	}
	setRetryAfter(w, time.Second)
	writeError(w, http.StatusServiceUnavailable, "search pool saturated: %v", err)
}

// runSearch executes one validated search over view. With caching
// enabled and a published generation to key on, the request first
// consults the generation-keyed cache: a hit answers immediately,
// concurrent identical requests coalesce onto one underlying search,
// and a miss computes, caches and answers. Members translate back to
// global ids; a view that translates also tags the response with its
// shard.
func (s *Server) runSearch(w http.ResponseWriter, r *http.Request, req SearchRequest, view shard.View, seed int32, c float64) {
	opt := s.searchOptions(req)
	snap := view.Snap

	compute := func() (*searchEntry, error) {
		rngSeed := req.RNGSeed
		if rngSeed == 0 {
			rngSeed = s.streams.Add(1)
		}
		community, fitness, err := s.executeSearch(r.Context(), snap.Graph, snap.MaxDegree, snap.Gen, view.Shard, seed, c, rngSeed, opt)
		if err != nil {
			return nil, err
		}
		resp := SearchResponse{
			Seed:       req.Seed,
			C:          c,
			Size:       len(community),
			Fitness:    fitness,
			Members:    view.Members(community),
			Generation: snap.Gen,
		}
		if view.Sharded() {
			sh := view.Shard
			resp.Shard = &sh
		}
		return &searchEntry{
			resp:      resp,
			local:     community,
			localSeed: seed,
			c:         c,
			rngUsed:   rngSeed,
			opt:       opt,
		}, nil
	}

	if s.cache != nil && snap.Gen > 0 {
		key := searchKey{
			shard:   view.Shard,
			gen:     snap.Gen,
			seed:    req.Seed,
			c:       c,
			prob:    opt.NeighborProb,
			steps:   opt.MaxSteps,
			maxSize: opt.MaxCommunitySize,
			// The raw request value, not the resolved stream: an explicit
			// seed keys a deterministic replay, and 0 groups every
			// "server picks a stream" request for these parameters onto
			// one shared result — the hot-seed case the cache serves.
			rngSeed: req.RNGSeed,
		}
		ent, fresh, err := s.cache.getOrCompute(r.Context(), key, compute)
		if err != nil {
			writeSearchError(w, err)
			return
		}
		// Entries are shared between requests and with the cache:
		// annotate a value copy, never the entry itself.
		resp := ent.resp
		resp.Cached = !fresh
		writeJSON(w, http.StatusOK, resp)
		return
	}

	ent, err := compute()
	if err != nil {
		writeSearchError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ent.resp)
}
