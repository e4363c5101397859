package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/refresh"
	"repro/internal/shard"
)

// ServerConfig identifies the deployment a shard server belongs to.
type ServerConfig struct {
	// GlobalNodes is the node count of the global graph the shard was
	// split from; MaxNodes is the global growth ceiling. The router
	// handshake cross-checks both across all K servers, so a restarted
	// shard must advertise what it advertised before: persist.OpenShard
	// resolves both from the recovered segment's identity, not from a
	// re-read of the input file.
	GlobalNodes int
	MaxNodes    int
	// MaxRequestBody caps apply/lookup body sizes. Default 32 MiB (a
	// mutation fan-out slice can legitimately be large).
	MaxRequestBody int64
	// OnMapChange, when set, is called after a final (non-pending)
	// partition-map install has been adopted and flushed — the
	// persistence hook (persist.Shard.OnMapChange): record the map and
	// seal a segment so a crash right after the flip recovers at the new
	// epoch. An error
	// fails the install request (the map stays adopted in memory).
	OnMapChange func(pm *shard.PartitionMap) error
}

// ShardServer hosts one shard.Worker behind the wire protocol: the
// `ocad -serve-shard` role. It serves snapshot resolution, batch
// lookup, mutation apply (with ghost-table updates shipped in the
// fan-out), flush, and the generation/health probe. Reads answer from
// the worker's atomic snapshot and never block on rebuilds; apply and
// flush refuse work while draining so a shutdown never loses accepted
// mutations silently.
type ShardServer struct {
	w        *shard.Worker
	cfg      ServerConfig
	draining atomic.Bool
	shed     atomic.Uint64
	misses   atomic.Uint64 // chain requests answered with the full stream
	instance string        // HeaderSnapshotInstance, drawn at construction
}

// NewShardServer wraps a shard worker for serving.
func NewShardServer(w *shard.Worker, cfg ServerConfig) *ShardServer {
	if cfg.MaxRequestBody <= 0 {
		cfg.MaxRequestBody = 32 << 20
	}
	return &ShardServer{w: w, cfg: cfg, instance: strconv.FormatUint(rand.Uint64(), 36)}
}

// SetDraining flips the shutdown gate: while draining, apply and flush
// answer 503 (code "closed") and reads keep serving the last published
// generation. Called before the HTTP listener starts its drain so no
// accepted mutation can race the worker's Close.
func (s *ShardServer) SetDraining(v bool) { s.draining.Store(v) }

// Handler returns the shard protocol's http.Handler — exactly the
// Routes manifest.
func (s *ShardServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathHealth, s.handleHealth)
	mux.HandleFunc("GET "+PathSnapshot, s.handleSnapshot)
	mux.HandleFunc("POST "+PathApply, s.handleApply)
	mux.HandleFunc("POST "+PathFlush, s.handleFlush)
	mux.HandleFunc("POST "+PathLookup, s.handleLookup)
	mux.HandleFunc("GET "+PathMap, s.handleMapGet)
	mux.HandleFunc("POST "+PathMap, s.handleMapPost)
	mux.HandleFunc("POST "+PathIngest, s.handleApply)
	return protocolMiddleware(mux, &s.shed)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

func (s *ShardServer) handleHealth(w http.ResponseWriter, _ *http.Request) {
	pm := s.w.PartitionMap()
	writeJSON(w, http.StatusOK, Health{
		Protocol:     Version,
		Shard:        s.w.Shard(),
		Shards:       s.w.K(),
		GlobalNodes:  s.cfg.GlobalNodes,
		MaxNodes:     s.cfg.MaxNodes,
		TableLen:     len(s.w.Table()),
		Draining:     s.draining.Load(),
		DeadlineShed: s.shed.Load(),
		ChainMisses:  s.misses.Load(),
		Epoch:        pm.Epoch,
		Map:          pm.Encode(),
		Role:         RolePrimary,
		Snapshot:     s.w.Snapshot().Info(),
		Status:       s.w.Status(),
	})
}

// handleMapGet answers the shard's active partition map.
func (s *ShardServer) handleMapGet(w http.ResponseWriter, _ *http.Request) {
	pm := s.w.PartitionMap()
	writeJSON(w, http.StatusOK, MapResponse{Epoch: pm.Epoch, Map: pm.Encode()})
}

// handleMapPost installs a partition map. A pending install is
// transfer-window state: adopted for ownership evaluation, never
// persisted, so a crash mid-migration rejoins at the old epoch. A final
// install flushes the worker (the forced ownership rebuild publishes
// under the new map) and then fires the persistence hook — the 200 is
// the durability acknowledgment the router's flip broadcast waits for.
func (s *ShardServer) handleMapPost(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		retryAfter(w, time.Second)
		writeCode(w, http.StatusServiceUnavailable, CodeClosed, "shard draining")
		return
	}
	var req MapRequest
	if !s.decode(w, r, &req) {
		return
	}
	pm, err := shard.DecodePartitionMap(req.Map)
	if err != nil {
		writeCode(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if err := s.w.SetPartitionMap(pm); err != nil {
		if errors.Is(err, refresh.ErrClosed) {
			retryAfter(w, time.Second)
			writeCode(w, http.StatusServiceUnavailable, CodeClosed, "%v", err)
			return
		}
		writeCode(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if !req.Pending {
		if _, err := s.w.Flush(r.Context()); err != nil {
			retryAfter(w, time.Second)
			writeCode(w, http.StatusServiceUnavailable, CodeInterrupted, "map adopted, rebuild wait interrupted: %v", err)
			return
		}
		if s.cfg.OnMapChange != nil {
			if err := s.cfg.OnMapChange(pm); err != nil {
				writeCode(w, http.StatusInternalServerError, CodeBadRequest, "map adopted but not persisted: %v", err)
				return
			}
		}
	}
	act := s.w.PartitionMap()
	writeJSON(w, http.StatusOK, MapResponse{Epoch: act.Epoch, Map: act.Encode()})
}

// handleSnapshot answers the published generation (see serveSnapshot),
// as a chain out of the worker's link ring when it holds one.
func (s *ShardServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	serveSnapshot(w, r, s.w.Shard(), s.w.K(), s.w.Snapshot(), s.instance, s.w.Table, s.w.Chain, &s.misses)
}

// serveSnapshot answers GET /shard/v1/snapshot for one loaded
// generation — shared by the primary (worker snapshot) and replica
// (mirror) paths: 304 when the client's ?since generation is already
// current; the chain since → snap when the client accepts the chain
// media type, its generation since belongs to this instance's
// numbering, and chain can supply it; the snapshot stream otherwise
// (counted in misses when a chain was asked for). table is called after
// the snapshot load and only when a stream is sent: the mapping is
// append-only, so the capture is always a superset of the generation's
// prefix and the next apply's base reconciliation stays consistent.
func serveSnapshot(w http.ResponseWriter, r *http.Request, shardID, k int, snap *refresh.Snapshot, instance string, table func() []int32,
	chain func(since uint64, head *refresh.Snapshot) ([]*shard.Link, bool), misses *atomic.Uint64) {
	var since uint64
	if sinceStr := r.URL.Query().Get("since"); sinceStr != "" {
		var err error
		if since, err = strconv.ParseUint(sinceStr, 10, 64); err != nil {
			writeCode(w, http.StatusBadRequest, CodeBadRequest, "invalid since=%q", sinceStr)
			return
		}
		if snap.Gen <= since {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	if instance != "" {
		w.Header().Set(HeaderSnapshotInstance, instance)
	}
	if since > 0 && acceptsChain(r) {
		var links []*shard.Link
		ok := instance != "" && r.Header.Get(HeaderSnapshotInstance) == instance
		if ok {
			links, ok = chain(since, snap)
		}
		if ok {
			w.Header().Set("Content-Type", ContentTypeSnapshotChain)
			_ = encodeChain(w, shardID, k, since, links)
			return
		}
		misses.Add(1)
	}
	w.Header().Set("Content-Type", ContentTypeSnapshot)
	_ = encodeSnapshot(w, shardID, k, snap, table())
}

// acceptsChain reports whether the request's Accept header lists the
// chain media type.
func acceptsChain(r *http.Request) bool {
	for _, v := range r.Header.Values("Accept") {
		for _, part := range strings.Split(v, ",") {
			if mt, _, err := mime.ParseMediaType(strings.TrimSpace(part)); err == nil && mt == ContentTypeSnapshotChain {
				return true
			}
		}
	}
	return false
}

func (s *ShardServer) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeJSONBody(w, r, s.cfg.MaxRequestBody, v)
}

func decodeJSONBody(w http.ResponseWriter, r *http.Request, maxBody int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeCode(w, http.StatusBadRequest, CodeBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

func (s *ShardServer) handleApply(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		retryAfter(w, time.Second)
		writeCode(w, http.StatusServiceUnavailable, CodeClosed, "shard draining")
		return
	}
	var req ApplyRequest
	if !s.decode(w, r, &req) {
		return
	}
	gen, queued, err := s.w.ApplyBatch(req.Batch)
	switch {
	case errors.Is(err, refresh.ErrBacklogFull):
		retryAfter(w, refresh.RetryAfter(s.w.Status().Status.Pending, s.w.MaxPending()))
		writeCode(w, http.StatusServiceUnavailable, CodeBacklogFull, "%v", err)
	case errors.Is(err, refresh.ErrClosed):
		retryAfter(w, time.Second)
		writeCode(w, http.StatusServiceUnavailable, CodeClosed, "%v", err)
	case errors.Is(err, shard.ErrTableConflict):
		writeCode(w, http.StatusConflict, CodeTableConflict, "%v", err)
	case err != nil:
		writeCode(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusOK, ApplyResponse{Generation: gen, Queued: queued})
	}
}

// handleFlush blocks until previously applied mutations are published.
// The wait is bounded by the client's request deadline (a disconnect
// cancels r.Context()), never by this server — "never hang" is the
// caller's own timeout to enforce.
func (s *ShardServer) handleFlush(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		retryAfter(w, time.Second)
		writeCode(w, http.StatusServiceUnavailable, CodeClosed, "shard draining")
		return
	}
	var req FlushRequest
	if !s.decode(w, r, &req) {
		return
	}
	gen, err := s.w.Flush(r.Context())
	switch {
	case errors.Is(err, refresh.ErrClosed):
		retryAfter(w, time.Second)
		writeCode(w, http.StatusServiceUnavailable, CodeClosed, "%v", err)
	case err != nil && fromDeadlineHeader(r.Context()):
		// The caller's propagated budget ran out mid-wait: shed the work
		// and say so — the batch stays queued and will still publish.
		s.shed.Add(1)
		writeCode(w, http.StatusGatewayTimeout, CodeDeadlineExceeded, "flush abandoned: %v", err)
	case err != nil:
		// Context cancellation: the batch stays queued and will still be
		// applied; the client decides whether to re-flush.
		retryAfter(w, time.Second)
		writeCode(w, http.StatusServiceUnavailable, CodeInterrupted, "flush interrupted: %v", err)
	default:
		writeJSON(w, http.StatusOK, FlushResponse{Generation: gen})
	}
}

// handleLookup answers a batch membership lookup from one snapshot
// load. Ids not materialized on this shard answer a per-id error; the
// caller decides whether another shard owns them.
func (s *ShardServer) handleLookup(w http.ResponseWriter, r *http.Request) {
	var req LookupRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		writeCode(w, http.StatusBadRequest, CodeBadRequest, "ids must name at least one node")
		return
	}
	writeJSON(w, http.StatusOK, answerLookup(s.w.View(), req))
}

// answerLookup resolves a lookup batch against one consistent view —
// shared by the primary (worker view) and replica (mirror view) paths.
func answerLookup(view shard.View, req LookupRequest) LookupResponse {
	resp := LookupResponse{
		Generation: view.Snap.Gen,
		Results:    make([]LookupResult, len(req.IDs)),
	}
	for i, id := range req.IDs {
		local, ok := view.Local(id)
		if !ok {
			resp.Results[i] = LookupResult{Node: id, Error: "node not materialized on this shard"}
			continue
		}
		cis := view.Snap.Index.Communities(local)
		res := LookupResult{Node: id, Count: len(cis)}
		if len(cis) > 0 {
			res.Communities = make([]LookupCommunity, len(cis))
			for j, ci := range cis {
				members := view.Snap.Cover.Communities[ci]
				lc := LookupCommunity{ID: ci, Size: len(members)}
				if req.Members {
					lc.Members = view.Members(members)
				}
				res.Communities[j] = lc
			}
		}
		resp.Results[i] = res
	}
	return resp
}
