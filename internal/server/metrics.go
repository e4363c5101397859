package server

// Per-endpoint request metrics: a lock-free count + latency histogram
// per route, recorded by a middleware around every handler, served in
// full at GET /debug/metrics and summarized in /healthz. Everything is
// plain atomics — no external metrics dependency — so the hot path
// costs two atomic adds per request.

import (
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/persist"
	"repro/internal/resilience"
	"repro/internal/shard"
)

// latencyBoundsMillis are the histogram bucket upper bounds; one
// implicit +Inf bucket follows. Log-ish spacing from sub-millisecond
// index lookups to multi-second OCA-blocked waits.
var latencyBoundsMillis = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// routeStats accumulates one route's counters. All fields are atomics;
// reads may tear across fields (a count observed without its latency),
// which is fine for monitoring.
type routeStats struct {
	count     atomic.Uint64
	errors    atomic.Uint64 // 5xx responses
	sumMicros atomic.Uint64
	buckets   []atomic.Uint64 // len(latencyBoundsMillis)+1; last is +Inf
}

func newRouteStats() *routeStats {
	return &routeStats{buckets: make([]atomic.Uint64, len(latencyBoundsMillis)+1)}
}

func (rs *routeStats) observe(d time.Duration, status int) {
	rs.count.Add(1)
	if status >= 500 {
		rs.errors.Add(1)
	}
	rs.sumMicros.Add(uint64(d.Microseconds()))
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBoundsMillis) && ms > latencyBoundsMillis[i] {
		i++
	}
	rs.buckets[i].Add(1)
}

// httpMetrics is the fixed per-route registry. Routes are registered at
// Handler construction, so serving needs no lock at all.
type httpMetrics struct {
	names []string
	stats map[string]*routeStats
}

func newHTTPMetrics() *httpMetrics {
	return &httpMetrics{stats: make(map[string]*routeStats)}
}

// instrument registers a route and wraps its handler with latency and
// status recording. Registration is idempotent: a route name seen
// before reuses its counters, so building Handler() more than once
// (two listeners over one Server) keeps one set of stats per route.
// Like Handler itself, it is for setup time, not concurrent use.
func (m *httpMetrics) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	rs, ok := m.stats[name]
	if !ok {
		rs = newRouteStats()
		m.names = append(m.names, name)
		m.stats[name] = rs
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w}
		h(sr, r)
		status := sr.status
		if status == 0 {
			status = http.StatusOK
		}
		rs.observe(time.Since(start), status)
	}
}

// statusRecorder captures the response status while passing Flush and
// ResponseController unwrapping through to the underlying writer (the
// streaming export depends on both).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// routeMetrics is one route's entry in the /debug/metrics body.
type routeMetrics struct {
	Count      uint64  `json:"count"`
	Errors     uint64  `json:"errors"`
	MeanMillis float64 `json:"mean_millis"`
	// Buckets holds per-bucket (non-cumulative) counts aligned with the
	// top-level bounds_millis array; the final entry is the +Inf bucket.
	Buckets []uint64 `json:"buckets"`
}

// refreshMetrics is one shard's refresh-side entry in /debug/metrics:
// the queue-depth/staleness gauges plus how the served generation was
// last rebuilt. The unsharded path reports a single shard 0.
type refreshMetrics struct {
	Shard                   int     `json:"shard"`
	Generation              uint64  `json:"generation"`
	QueueDepth              int     `json:"queue_depth"`
	OldestPendingAgeSeconds float64 `json:"oldest_pending_age_seconds"`
	Rebuilding              bool    `json:"rebuilding"`
	RebuildMode             string  `json:"rebuild_mode,omitempty"`
	DirtyNodes              int     `json:"dirty_nodes,omitempty"`
}

// resilienceMetrics is one shard backend's breaker/retry/deadline
// counter block in /debug/metrics. Replicated shards aggregate their
// members (each member's own block rides on the replicas vector).
type resilienceMetrics struct {
	Shard int `json:"shard"`
	resilience.Stats
}

// metricsResponse is the GET /debug/metrics body.
type metricsResponse struct {
	BoundsMillis []float64               `json:"bounds_millis"`
	Routes       map[string]routeMetrics `json:"routes"`
	// Refresh is the per-shard refresh gauge vector (absent until the
	// first cover exists; never forces a lazy build).
	Refresh []refreshMetrics `json:"refresh,omitempty"`
	// Persist is the durability state (servers with a data directory
	// only): segments on disk, live WAL size, batches logged.
	Persist *persist.Stats `json:"persist,omitempty"`
	// SearchCache is the seeded-search result cache state (absent when
	// caching is disabled): occupancy plus the hit / miss / coalesce /
	// carry-forward counters.
	SearchCache *searchCacheStats `json:"search_cache,omitempty"`
	// Replicas is the per-shard replica-set state (replicated routers
	// only): the read floor plus every member's freshness lag and
	// health. Shards without replica sets are omitted.
	Replicas []*shard.ReplicaSetStats `json:"replicas,omitempty"`
	// Resilience is the per-shard breaker/retry/deadline counter vector
	// (routers with remote backends only): breaker state and trips,
	// retries spent, budget refusals, RPCs lost to deadlines.
	Resilience []resilienceMetrics `json:"resilience,omitempty"`
	// Rebalance is the partition-map epoch and migration counters
	// (providers that can rebalance only).
	Rebalance *shard.RebalanceStatus `json:"rebalance,omitempty"`
}

// handleDebugMetrics serves the metrics registry — JSON by default, the
// Prometheus text exposition format with ?format=prometheus (for
// scrapers; the per-shard queue-depth and oldest-pending-age gauges are
// the staleness signals worth alerting on).
func (s *Server) handleDebugMetrics(w http.ResponseWriter, r *http.Request) {
	refresh := s.refreshMetrics()
	var pst *persist.Stats
	if p := s.cfg.Persist; p != nil {
		st := p.Stats()
		pst = &st
	}
	var cst *searchCacheStats
	if s.cache != nil {
		st := s.cache.stats()
		cst = &st
	}
	reps := s.replicaStats()
	res := s.resilienceStats()
	var rbs *shard.RebalanceStatus
	if rb, ok := s.sp.(Rebalancer); ok {
		st := rb.RebalanceStatus()
		rbs = &st
	}
	if r.URL.Query().Get("format") == "prometheus" {
		s.metrics.writePrometheus(w, refresh, pst, cst, reps, res, rbs)
		return
	}
	s.metrics.handleDebug(w, refresh, pst, cst, reps, res, rbs)
}

// replicaStats asks the provider for per-shard replica-set state; nil
// when the provider has no replicated backends (single path, plain
// sharded path) or no shard is replicated.
func (s *Server) replicaStats() []*shard.ReplicaSetStats {
	rp, ok := s.sp.(interface {
		ReplicaStats() []*shard.ReplicaSetStats
	})
	if !ok {
		return nil
	}
	all := rp.ReplicaStats()
	out := all[:0]
	for _, st := range all {
		if st != nil {
			out = append(out, st)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// resilienceStats asks the provider for each shard backend's
// breaker/retry/deadline counters; nil when no backend has a transport
// to break (single path, in-process sharded path).
func (s *Server) resilienceStats() []resilienceMetrics {
	rp, ok := s.sp.(interface {
		ResilienceStats() []*resilience.Stats
	})
	if !ok {
		return nil
	}
	var out []resilienceMetrics
	for sh, st := range rp.ResilienceStats() {
		if st != nil {
			out = append(out, resilienceMetrics{Shard: sh, Stats: *st})
		}
	}
	return out
}

// refreshMetrics assembles the per-shard gauge vector from one status
// and one view per shard. Nil until the first cover exists, so
// observability never blocks on (or triggers) an OCA run.
func (s *Server) refreshMetrics() []refreshMetrics {
	if !s.sp.Ready() {
		return nil
	}
	statuses := s.sp.Statuses()
	views, err := s.sp.Views()
	if err != nil || len(views) != len(statuses) {
		return nil
	}
	out := make([]refreshMetrics, len(statuses))
	for i, ws := range statuses {
		snap := views[i].Snap
		e := refreshMetrics{
			Shard:       ws.Shard,
			Generation:  snap.Gen,
			QueueDepth:  ws.Status.Pending,
			Rebuilding:  ws.Status.Rebuilding,
			RebuildMode: snap.RebuildMode,
			DirtyNodes:  snap.DirtyNodes,
		}
		if !ws.Status.OldestPending.IsZero() {
			e.OldestPendingAgeSeconds = time.Since(ws.Status.OldestPending).Seconds()
		}
		out[i] = e
	}
	return out
}

func (m *httpMetrics) handleDebug(w http.ResponseWriter, refresh []refreshMetrics, pst *persist.Stats, cst *searchCacheStats, reps []*shard.ReplicaSetStats, res []resilienceMetrics, rbs *shard.RebalanceStatus) {
	resp := metricsResponse{
		BoundsMillis: latencyBoundsMillis,
		Routes:       make(map[string]routeMetrics, len(m.names)),
		Refresh:      refresh,
		Persist:      pst,
		SearchCache:  cst,
		Replicas:     reps,
		Resilience:   res,
		Rebalance:    rbs,
	}
	for _, name := range m.names {
		rs := m.stats[name]
		rm := routeMetrics{
			Count:   rs.count.Load(),
			Errors:  rs.errors.Load(),
			Buckets: make([]uint64, len(rs.buckets)),
		}
		if rm.Count > 0 {
			rm.MeanMillis = float64(rs.sumMicros.Load()) / float64(rm.Count) / 1000
		}
		for i := range rs.buckets {
			rm.Buckets[i] = rs.buckets[i].Load()
		}
		resp.Routes[name] = rm
	}
	writeJSON(w, http.StatusOK, resp)
}

// promReplacer escapes Prometheus label values.
var promReplacer = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func promEscape(v string) string { return promReplacer.Replace(v) }

// writePrometheus renders the registry in the Prometheus text
// exposition format: per-shard refresh gauges plus per-route request
// counters. Everything is assembled from the same atomics as the JSON
// body — no extra bookkeeping on the hot path.
func (m *httpMetrics) writePrometheus(w http.ResponseWriter, refresh []refreshMetrics, pst *persist.Stats, cst *searchCacheStats, reps []*shard.ReplicaSetStats, res []resilienceMetrics, rbs *shard.RebalanceStatus) {
	var b strings.Builder
	if rbs != nil {
		b.WriteString("# HELP ocad_partition_epoch The partition map epoch the router currently routes under.\n")
		b.WriteString("# TYPE ocad_partition_epoch gauge\n")
		fmt.Fprintf(&b, "ocad_partition_epoch %d\n", rbs.Epoch)
		b.WriteString("# HELP ocad_migration_total Completed shard rebalances (flips).\n")
		b.WriteString("# TYPE ocad_migration_total counter\n")
		fmt.Fprintf(&b, "ocad_migration_total %d\n", rbs.Migrations)
		b.WriteString("# HELP ocad_migration_aborted_total Rebalances rolled back to their old epoch.\n")
		b.WriteString("# TYPE ocad_migration_aborted_total counter\n")
		fmt.Fprintf(&b, "ocad_migration_aborted_total %d\n", rbs.Aborted)
		b.WriteString("# HELP ocad_migration_active Whether a rebalance transfer window is currently open.\n")
		b.WriteString("# TYPE ocad_migration_active gauge\n")
		active := 0
		if rbs.Active {
			active = 1
		}
		fmt.Fprintf(&b, "ocad_migration_active %d\n", active)
		b.WriteString("# HELP ocad_halo_sync_total Completed halo refresh sweeps.\n")
		b.WriteString("# TYPE ocad_halo_sync_total counter\n")
		fmt.Fprintf(&b, "ocad_halo_sync_total %d\n", rbs.HaloSyncs)
	}
	b.WriteString("# HELP ocad_shard_queue_depth Mutations queued on the shard, not yet reflected in any snapshot.\n")
	b.WriteString("# TYPE ocad_shard_queue_depth gauge\n")
	for _, e := range refresh {
		fmt.Fprintf(&b, "ocad_shard_queue_depth{shard=\"%d\"} %d\n", e.Shard, e.QueueDepth)
	}
	b.WriteString("# HELP ocad_shard_oldest_pending_age_seconds Age of the shard's oldest queued mutation (0 when the queue is empty).\n")
	b.WriteString("# TYPE ocad_shard_oldest_pending_age_seconds gauge\n")
	for _, e := range refresh {
		fmt.Fprintf(&b, "ocad_shard_oldest_pending_age_seconds{shard=\"%d\"} %g\n", e.Shard, e.OldestPendingAgeSeconds)
	}
	b.WriteString("# HELP ocad_shard_generation The shard's served snapshot generation.\n")
	b.WriteString("# TYPE ocad_shard_generation gauge\n")
	for _, e := range refresh {
		fmt.Fprintf(&b, "ocad_shard_generation{shard=\"%d\"} %d\n", e.Shard, e.Generation)
	}
	b.WriteString("# HELP ocad_shard_rebuilding Whether a rebuild is in flight on the shard.\n")
	b.WriteString("# TYPE ocad_shard_rebuilding gauge\n")
	for _, e := range refresh {
		v := 0
		if e.Rebuilding {
			v = 1
		}
		fmt.Fprintf(&b, "ocad_shard_rebuilding{shard=\"%d\"} %d\n", e.Shard, v)
	}
	b.WriteString("# HELP ocad_shard_rebuild_dirty_nodes Dirty-region size of the shard's last rebuild, by mode.\n")
	b.WriteString("# TYPE ocad_shard_rebuild_dirty_nodes gauge\n")
	for _, e := range refresh {
		if e.RebuildMode == "" {
			continue
		}
		fmt.Fprintf(&b, "ocad_shard_rebuild_dirty_nodes{shard=\"%d\",mode=\"%s\"} %d\n", e.Shard, promEscape(e.RebuildMode), e.DirtyNodes)
	}
	if pst != nil {
		b.WriteString("# HELP ocad_persist_segments Snapshot segments retained in the data directory.\n")
		b.WriteString("# TYPE ocad_persist_segments gauge\n")
		fmt.Fprintf(&b, "ocad_persist_segments %d\n", pst.Segments)
		b.WriteString("# HELP ocad_persist_newest_segment_generation Generation of the newest sealed segment.\n")
		b.WriteString("# TYPE ocad_persist_newest_segment_generation gauge\n")
		fmt.Fprintf(&b, "ocad_persist_newest_segment_generation %d\n", pst.NewestSegment)
		b.WriteString("# HELP ocad_persist_wal_bytes Size of the live write-ahead log.\n")
		b.WriteString("# TYPE ocad_persist_wal_bytes gauge\n")
		fmt.Fprintf(&b, "ocad_persist_wal_bytes %d\n", pst.WALBytes)
		b.WriteString("# HELP ocad_persist_logged_batches_total Mutation batches logged to the WAL since start.\n")
		b.WriteString("# TYPE ocad_persist_logged_batches_total counter\n")
		fmt.Fprintf(&b, "ocad_persist_logged_batches_total %d\n", pst.LoggedBatches)
		b.WriteString("# HELP ocad_persist_segment_failures_total Segment writes that failed since start.\n")
		b.WriteString("# TYPE ocad_persist_segment_failures_total counter\n")
		fmt.Fprintf(&b, "ocad_persist_segment_failures_total %d\n", pst.SegmentFailures)
	}
	if cst != nil {
		b.WriteString("# HELP ocad_search_cache_entries Entries resident in the seeded-search result cache.\n")
		b.WriteString("# TYPE ocad_search_cache_entries gauge\n")
		fmt.Fprintf(&b, "ocad_search_cache_entries %d\n", cst.Entries)
		b.WriteString("# HELP ocad_search_cache_capacity Configured entry capacity of the search cache.\n")
		b.WriteString("# TYPE ocad_search_cache_capacity gauge\n")
		fmt.Fprintf(&b, "ocad_search_cache_capacity %d\n", cst.Capacity)
		b.WriteString("# HELP ocad_search_cache_hits_total Searches answered from the cache.\n")
		b.WriteString("# TYPE ocad_search_cache_hits_total counter\n")
		fmt.Fprintf(&b, "ocad_search_cache_hits_total %d\n", cst.Hits)
		b.WriteString("# HELP ocad_search_cache_misses_total Searches that ran because no entry or flight existed.\n")
		b.WriteString("# TYPE ocad_search_cache_misses_total counter\n")
		fmt.Fprintf(&b, "ocad_search_cache_misses_total %d\n", cst.Misses)
		b.WriteString("# HELP ocad_search_cache_coalesced_total Requests that waited on a concurrent identical search instead of running their own.\n")
		b.WriteString("# TYPE ocad_search_cache_coalesced_total counter\n")
		fmt.Fprintf(&b, "ocad_search_cache_coalesced_total %d\n", cst.Coalesced)
		b.WriteString("# HELP ocad_search_cache_carried_forward_total Entries re-keyed to a new generation across incremental publishes.\n")
		b.WriteString("# TYPE ocad_search_cache_carried_forward_total counter\n")
		fmt.Fprintf(&b, "ocad_search_cache_carried_forward_total %d\n", cst.CarriedForward)
		b.WriteString("# HELP ocad_search_cache_carry_dropped_total Carry-forward candidates dropped by a failed similarity spot check.\n")
		b.WriteString("# TYPE ocad_search_cache_carry_dropped_total counter\n")
		fmt.Fprintf(&b, "ocad_search_cache_carry_dropped_total %d\n", cst.CarryDropped)
		b.WriteString("# HELP ocad_search_cache_evicted_total Entries evicted by the LRU capacity bound.\n")
		b.WriteString("# TYPE ocad_search_cache_evicted_total counter\n")
		fmt.Fprintf(&b, "ocad_search_cache_evicted_total %d\n", cst.Evicted)
		b.WriteString("# HELP ocad_search_cache_stale_pruned_total Superseded-generation entries pruned at publish.\n")
		b.WriteString("# TYPE ocad_search_cache_stale_pruned_total counter\n")
		fmt.Fprintf(&b, "ocad_search_cache_stale_pruned_total %d\n", cst.StalePruned)
	}
	if len(reps) > 0 {
		b.WriteString("# HELP ocad_replica_lag_generations Generations a replica-set member trails its primary by.\n")
		b.WriteString("# TYPE ocad_replica_lag_generations gauge\n")
		for _, st := range reps {
			for _, mem := range st.Members {
				fmt.Fprintf(&b, "ocad_replica_lag_generations{shard=\"%d\",replica=\"%s\"} %d\n",
					st.Shard, promEscape(mem.Addr), mem.Lag)
			}
		}
	}
	if len(res) > 0 {
		b.WriteString("# HELP ocad_breaker_state Circuit breaker state per shard backend (0 closed, 1 half-open, 2 open).\n")
		b.WriteString("# TYPE ocad_breaker_state gauge\n")
		for _, e := range res {
			v := 0
			switch e.BreakerState {
			case "half_open":
				v = 1
			case "open":
				v = 2
			}
			fmt.Fprintf(&b, "ocad_breaker_state{shard=\"%d\"} %d\n", e.Shard, v)
		}
		b.WriteString("# HELP ocad_breaker_trips_total Times the shard backend's breaker opened.\n")
		b.WriteString("# TYPE ocad_breaker_trips_total counter\n")
		for _, e := range res {
			fmt.Fprintf(&b, "ocad_breaker_trips_total{shard=\"%d\"} %d\n", e.Shard, e.BreakerTrips)
		}
		b.WriteString("# HELP ocad_breaker_fast_fails_total RPCs refused locally because the breaker was open.\n")
		b.WriteString("# TYPE ocad_breaker_fast_fails_total counter\n")
		for _, e := range res {
			fmt.Fprintf(&b, "ocad_breaker_fast_fails_total{shard=\"%d\"} %d\n", e.Shard, e.BreakerFastFails)
		}
		b.WriteString("# HELP ocad_retries_total Idempotent-read retry attempts spent against the shard backend.\n")
		b.WriteString("# TYPE ocad_retries_total counter\n")
		for _, e := range res {
			fmt.Fprintf(&b, "ocad_retries_total{shard=\"%d\"} %d\n", e.Shard, e.Retries)
		}
		b.WriteString("# HELP ocad_retry_budget_exhausted_total Retries refused by the token-bucket retry budget.\n")
		b.WriteString("# TYPE ocad_retry_budget_exhausted_total counter\n")
		for _, e := range res {
			fmt.Fprintf(&b, "ocad_retry_budget_exhausted_total{shard=\"%d\"} %d\n", e.Shard, e.RetryBudgetExhausted)
		}
		b.WriteString("# HELP ocad_deadline_exceeded_total Shard RPCs abandoned to a deadline or caller hang-up.\n")
		b.WriteString("# TYPE ocad_deadline_exceeded_total counter\n")
		for _, e := range res {
			fmt.Fprintf(&b, "ocad_deadline_exceeded_total{shard=\"%d\"} %d\n", e.Shard, e.DeadlineExceeded)
		}
		b.WriteString("# HELP ocad_mirror_syncs_total Snapshot syncs that moved the shard's mirror, by kind (chain: publishes folded; full: whole snapshot decoded).\n")
		b.WriteString("# TYPE ocad_mirror_syncs_total counter\n")
		for _, e := range res {
			fmt.Fprintf(&b, "ocad_mirror_syncs_total{shard=\"%d\",kind=\"chain\"} %d\n", e.Shard, e.MirrorChainSyncs)
			fmt.Fprintf(&b, "ocad_mirror_syncs_total{shard=\"%d\",kind=\"full\"} %d\n", e.Shard, e.MirrorFullSyncs)
		}
		b.WriteString("# HELP ocad_mirror_bytes_total Bytes the shard's mirror syncs read.\n")
		b.WriteString("# TYPE ocad_mirror_bytes_total counter\n")
		for _, e := range res {
			fmt.Fprintf(&b, "ocad_mirror_bytes_total{shard=\"%d\"} %d\n", e.Shard, e.MirrorBytes)
		}
		b.WriteString("# HELP ocad_chain_misses_total Chain requests the shard answered with a whole snapshot (its last health probe).\n")
		b.WriteString("# TYPE ocad_chain_misses_total counter\n")
		for _, e := range res {
			fmt.Fprintf(&b, "ocad_chain_misses_total{shard=\"%d\"} %d\n", e.Shard, e.ChainMisses)
		}
	}
	b.WriteString("# HELP ocad_http_requests_total Requests served, by route.\n")
	b.WriteString("# TYPE ocad_http_requests_total counter\n")
	for _, name := range m.names {
		fmt.Fprintf(&b, "ocad_http_requests_total{route=\"%s\"} %d\n", promEscape(name), m.stats[name].count.Load())
	}
	b.WriteString("# HELP ocad_http_request_errors_total 5xx responses, by route.\n")
	b.WriteString("# TYPE ocad_http_request_errors_total counter\n")
	for _, name := range m.names {
		fmt.Fprintf(&b, "ocad_http_request_errors_total{route=\"%s\"} %d\n", promEscape(name), m.stats[name].errors.Load())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// routeSummary is one route's compact entry in the /healthz summary.
type routeSummary struct {
	Count      uint64  `json:"count"`
	Errors     uint64  `json:"errors,omitempty"`
	MeanMillis float64 `json:"mean_millis"`
}

// requestsSummary is the /healthz "requests" object: total traffic plus
// per-route counts and mean latency for every route that has seen at
// least one request (the full histograms live at /debug/metrics).
type requestsSummary struct {
	Total  uint64                  `json:"total"`
	Routes map[string]routeSummary `json:"routes,omitempty"`
}

func (m *httpMetrics) summary() *requestsSummary {
	out := &requestsSummary{}
	for _, name := range m.names {
		rs := m.stats[name]
		c := rs.count.Load()
		if c == 0 {
			continue
		}
		out.Total += c
		if out.Routes == nil {
			out.Routes = make(map[string]routeSummary)
		}
		out.Routes[name] = routeSummary{
			Count:      c,
			Errors:     rs.errors.Load(),
			MeanMillis: float64(rs.sumMicros.Load()) / float64(c) / 1000,
		}
	}
	return out
}
