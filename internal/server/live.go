package server

// The live-serving endpoints: graph mutation intake, batch membership
// lookup and streaming bulk export. All three resolve through the
// SnapshotProvider seam and answer from exactly one view per shard per
// request, so their responses are internally consistent with a single
// generation per shard even while rebuilds swap the served state
// underneath them. On sharded servers every response carries the
// (shard, generation) vector so clients can detect a lagging shard.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/refresh"
	"repro/internal/shard"
)

// setRetryAfter stamps a Retry-After header of d rounded up to whole
// seconds (minimum 1 — the header speaks integer seconds). Every 503
// this server sheds with carries one so clients back off by advice
// instead of guessing.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// retryAfterBacklog stamps Retry-After from the deepest shard backlog:
// the fuller the queue, the longer the advised wait.
func (s *Server) retryAfterBacklog(w http.ResponseWriter) {
	pending := 0
	for _, st := range s.sp.Statuses() {
		if st.Status.Pending > pending {
			pending = st.Status.Pending
		}
	}
	setRetryAfter(w, refresh.RetryAfter(pending, refresh.DefaultMaxPending))
}

// EdgesRequest is the /v1/edges body: edge endpoints are [u, v] pairs
// of node ids. The batch is validated atomically — one invalid edge
// rejects the whole request and queues nothing. When the server allows
// node growth (MaxNodes), added edges may name ids beyond the current
// node set, extending the graph.
type EdgesRequest struct {
	Add    [][2]int32 `json:"add,omitempty"`
	Remove [][2]int32 `json:"remove,omitempty"`
	// Wait blocks the request until the mutations are reflected in a
	// published generation (subject to the request deadline) instead of
	// returning 202 immediately.
	Wait bool `json:"wait,omitempty"`
}

// EdgesResponse is the /v1/edges body.
type EdgesResponse struct {
	// Queued is the number of operations accepted.
	Queued int `json:"queued"`
	// Generation: with wait, the generation that includes the batch;
	// without, the generation current at enqueue time (any strictly
	// larger generation includes the batch). On sharded servers this is
	// the highest shard generation; Shards has the full vector.
	Generation uint64 `json:"generation"`
	// Applied reports whether the batch is already reflected (wait).
	Applied bool `json:"applied"`
	// Shards (sharded servers only) is the per-shard generation vector
	// at enqueue (or, with wait, apply) time.
	Shards shard.GenVector `json:"shards,omitempty"`
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	var req EdgesRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "invalid edges request: %v", err)
		return
	}
	if len(req.Add)+len(req.Remove) == 0 {
		writeError(w, http.StatusBadRequest, "edges request must add or remove at least one edge")
		return
	}
	vec, queued, touched, err := s.sp.Enqueue(r.Context(), req.Add, req.Remove)
	var buildErr coverBuildError
	switch {
	case errors.Is(err, refresh.ErrBacklogFull):
		s.retryAfterBacklog(w)
		writeError(w, http.StatusServiceUnavailable, "refresh backlog full, retry later")
		return
	case errors.Is(err, refresh.ErrClosed):
		setRetryAfter(w, time.Second)
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	case errors.Is(err, shard.ErrUnavailable):
		// A target shard process is down or unreachable: shed load, the
		// client retries once the shard is back (edge operations are
		// idempotent, so a retry after a partial fan-out is safe too).
		setRetryAfter(w, time.Second)
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.As(err, &buildErr):
		writeError(w, http.StatusInternalServerError, "building cover: %v", buildErr.err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, s.edgesResponse(queued, vec, false))
		return
	}
	vec, err = s.sp.Flush(r.Context(), touched)
	if err != nil {
		if errors.Is(err, refresh.ErrClosed) {
			setRetryAfter(w, time.Second)
			writeError(w, http.StatusServiceUnavailable, "server shutting down")
			return
		}
		// Deadline or client cancellation while waiting: the batch stays
		// queued and will still be applied.
		setRetryAfter(w, time.Second)
		writeError(w, http.StatusServiceUnavailable, "queued but not yet applied: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.edgesResponse(queued, vec, true))
}

func (s *Server) edgesResponse(queued int, vec shard.GenVector, applied bool) EdgesResponse {
	resp := EdgesResponse{Queued: queued, Generation: vec.Max(), Applied: applied}
	if shardedShape(s.peekViews()) {
		resp.Shards = vec
	}
	return resp
}

// BatchCommunitiesRequest is the POST /v1/nodes/communities body.
type BatchCommunitiesRequest struct {
	// IDs are the nodes to look up; duplicates are answered per
	// occurrence. Requests longer than the server's batch cap are
	// clamped, not rejected.
	IDs []int32 `json:"ids"`
	// Members includes each community's member list in the response.
	Members bool `json:"members,omitempty"`
	// Shared additionally intersects: the communities containing every
	// requested node.
	Shared bool `json:"shared,omitempty"`
}

// batchResult is one per-id answer. Out-of-range ids yield Error
// instead of failing the whole batch.
type batchResult struct {
	Node        int32          `json:"node"`
	Count       int            `json:"count"`
	Communities []communityRef `json:"communities,omitempty"`
	Error       string         `json:"error,omitempty"`
}

// batchCommunitiesResponse is the POST /v1/nodes/communities body. All
// results come from one view per shard: answers for duplicate ids are
// identical and cross-id comparisons are generation-consistent per
// shard; the Shards vector exposes each shard's generation so clients
// can detect a lagging shard.
type batchCommunitiesResponse struct {
	Generation uint64        `json:"generation"`
	Count      int           `json:"count"`
	Clamped    bool          `json:"clamped,omitempty"`
	Results    []batchResult `json:"results"`
	// Shared (present only when requested, unsharded servers) lists the
	// communities containing every requested node.
	Shared *[]int32 `json:"shared,omitempty"`
	// SharedRefs (present whenever requested on sharded servers, even
	// when empty) lists shard-scoped communities containing every
	// requested node — a boundary community can hold all the ids even
	// when they live on different shards, because halos include ghost
	// members.
	SharedRefs *[]communityRef `json:"shared_refs,omitempty"`
	// Shards (sharded servers only) is the per-shard generation vector
	// this batch was answered from.
	Shards shard.GenVector `json:"shards,omitempty"`
}

func (s *Server) handleBatchCommunities(w http.ResponseWriter, r *http.Request) {
	var req BatchCommunitiesRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "invalid batch request: %v", err)
		return
	}
	if len(req.IDs) == 0 {
		writeError(w, http.StatusBadRequest, "ids must name at least one node")
		return
	}
	// One view per shard for the whole batch: the fan-out happens here,
	// and every id is answered from its owning shard's view.
	views, err := s.sp.Views()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building cover: %v", err)
		return
	}
	ids := req.IDs
	clamped := false
	if len(ids) > s.cfg.MaxBatchIDs {
		ids = ids[:s.cfg.MaxBatchIDs]
		clamped = true
	}
	vec := shard.VectorOf(views)
	resp := batchCommunitiesResponse{
		Generation: vec.Max(),
		Count:      len(ids),
		Clamped:    clamped,
		Results:    make([]batchResult, len(ids)),
	}
	if shardedShape(views) {
		resp.Shards = vec
	}
	for i, v := range ids {
		if v < 0 {
			resp.Results[i] = batchResult{Node: v, Error: "node out of range"}
			continue
		}
		view := views[s.sp.ShardOf(v)]
		if view.Err != nil {
			// Partial results with an explicit per-id (and per-shard, via
			// the vector) error: ids on healthy shards still answer, ids
			// on the unreachable shard are never served stale silently.
			resp.Results[i] = batchResult{Node: v, Error: fmt.Sprintf("shard %d unavailable: %v", view.Shard, view.Err)}
			continue
		}
		local, ok := view.Local(v)
		if !ok {
			resp.Results[i] = batchResult{Node: v, Error: "node out of range"}
			continue
		}
		cis := view.Snap.Index.Communities(local)
		res := batchResult{Node: v, Count: len(cis), Communities: make([]communityRef, len(cis))}
		for j, ci := range cis {
			res.Communities[j] = communityRefFor(view, ci, req.Members)
		}
		resp.Results[i] = res
	}
	if req.Shared {
		fillShared(&resp, views, ids)
	}
	writeJSON(w, http.StatusOK, resp)
}

// fillShared answers the "which groups do all these people share?"
// option: each view intersects over its own (owned + ghost) membership —
// ids unknown to a view empty that view's intersection — and the union
// of surviving communities is reported, shard-scoped in the sharded
// shape (a boundary community can hold all the ids even when they live
// on different shards, because halos include ghost members), as bare
// community ids otherwise.
func fillShared(resp *batchCommunitiesResponse, views []shard.View, ids []int32) {
	refs := []communityRef{}
	locals := make([]int32, len(ids))
	for _, view := range views {
		if view.Err != nil {
			// A degraded shard contributes nothing: the intersection is
			// best-effort partial, flagged by the response's shard vector.
			continue
		}
		for i, v := range ids {
			if l, ok := view.Local(v); ok {
				locals[i] = l
			} else {
				locals[i] = -1 // unknown here: intersection is empty
			}
		}
		for _, ci := range view.Snap.Index.Common(locals) {
			refs = append(refs, communityRefFor(view, ci, false))
		}
	}
	if shardedShape(views) {
		resp.SharedRefs = &refs
		return
	}
	shared := make([]int32, len(refs))
	for i, ref := range refs {
		shared[i] = ref.ID
	}
	resp.Shared = &shared
}

// exportMeta is the first NDJSON line of /v1/cover/export.
type exportMeta struct {
	Generation  uint64 `json:"generation"`
	Nodes       int    `json:"nodes"`
	Edges       int64  `json:"edges"`
	Communities int    `json:"communities"`
	// Shards (sharded servers only) is the per-shard generation vector
	// the export streams from.
	Shards shard.GenVector `json:"shards,omitempty"`
}

// exportCommunity is one community line of /v1/cover/export. Members
// are always global node ids; Shard scopes the id on sharded servers.
type exportCommunity struct {
	ID      int32   `json:"id"`
	Shard   *int    `json:"shard,omitempty"`
	Size    int     `json:"size"`
	Members []int32 `json:"members"`
}

// exportFlushEvery bounds how many communities are encoded between
// context checks and flushes, so a disconnected client stops the
// stream early instead of the handler encoding the whole cover into a
// dead connection.
const exportFlushEvery = 256

// handleExport streams the whole served cover as NDJSON: one meta line
// (generation, dimensions), then one line per community, shard by
// shard. Views are loaded once, so the export is a consistent view of
// exactly one generation per shard even while rebuilds publish newer
// ones mid-stream. With ?generation=N on a server with a data
// directory, a retained snapshot segment serves that past generation
// instead of the live state. Mounted outside the TimeoutHandler, which
// would buffer the entire body.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if genStr := r.URL.Query().Get("generation"); genStr != "" {
		s.handleExportGeneration(w, r, genStr)
		return
	}
	views, err := s.sp.Views()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building cover: %v", err)
		return
	}
	streamExport(w, r, views)
}

// handleExportGeneration answers a point-in-time export: the requested
// generation is served from a retained snapshot segment (or from the
// live snapshot when it is the current, not-yet-sealed one). Single-node
// only — sharded servers have no single global generation to pin.
func (s *Server) handleExportGeneration(w http.ResponseWriter, r *http.Request, genStr string) {
	if shardedShape(s.peekViews()) {
		writeError(w, http.StatusBadRequest, "point-in-time export is not supported on sharded servers")
		return
	}
	p := s.cfg.Persist
	if p == nil {
		writeError(w, http.StatusBadRequest, "point-in-time export requires a data directory (-data-dir)")
		return
	}
	gen, err := strconv.ParseUint(genStr, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid generation %q", genStr)
		return
	}
	seg, err := p.OpenGeneration(gen)
	if err != nil {
		// The live generation may postdate the newest sealed segment.
		if views, verr := s.sp.Views(); verr == nil && views[0].Snap.Gen == gen {
			streamExport(w, r, views)
			return
		}
		writeError(w, http.StatusNotFound, "generation %d is not retained (retained: %v)", gen, p.Generations())
		return
	}
	// The snapshot is backed by the mapped segment, which stays open for
	// the duration of the stream.
	defer seg.Close()
	streamExport(w, r, []shard.View{shard.SingleView(seg.Snapshot())})
}

// streamExport writes views in the export's NDJSON shape. A degraded
// shard's communities are omitted from the stream; its vector entry
// carries the error so the consumer knows the export is partial.
func streamExport(w http.ResponseWriter, r *http.Request, views []shard.View) {
	vec := shard.VectorOf(views)
	meta := exportMeta{Generation: vec.Max()}
	if shardedShape(views) {
		meta.Shards = vec
	}
	for _, v := range views {
		if v.Err != nil || v.Snap == nil {
			continue
		}
		own := v.Owned()
		meta.Nodes += own.OwnedNodes
		meta.Edges += own.OwnedEdges
		meta.Communities += v.Snap.Cover.Len()
	}
	// Clear the connection's write deadline: the export is mounted
	// outside the TimeoutHandler to stream arbitrarily large covers, and
	// the http.Server's WriteTimeout would otherwise sever the stream
	// mid-body. Slow-client backpressure is bounded by the flush loop's
	// context checks instead.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriterSize(w, 64<<10)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(meta); err != nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	written := 0
	for _, view := range views {
		if view.Err != nil || view.Snap == nil {
			continue
		}
		var shardPtr *int
		if view.Sharded() {
			sh := view.Shard
			shardPtr = &sh
		}
		for i, c := range view.Snap.Cover.Communities {
			if written%exportFlushEvery == 0 && written > 0 {
				if bw.Flush() != nil || r.Context().Err() != nil {
					return // client gone; stop encoding
				}
				if flusher != nil {
					flusher.Flush()
				}
			}
			if err := enc.Encode(exportCommunity{ID: int32(i), Shard: shardPtr, Size: len(c), Members: view.Members(c)}); err != nil {
				return
			}
			written++
		}
	}
	_ = bw.Flush()
}
