package transport

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/refresh"
	"repro/internal/resilience"
	"repro/internal/shard"
)

// ReplicaConfig tunes a replica server.
type ReplicaConfig struct {
	// Client tunes the mirror client that follows the primary (timeouts,
	// poll cadence — the poll interval bounds replication lag).
	Client ClientConfig
	// ConnectTimeout bounds the initial handshake with the primary
	// (default 60s) — like a router, a replica may start before the
	// primary's cover finishes building.
	ConnectTimeout time.Duration
	// MaxRequestBody caps lookup body sizes. Default 32 MiB.
	MaxRequestBody int64
}

// ReplicaServer is the `ocad -follow` role: a read-only mirror of one
// primary shard server. It rides the same resolution a router uses —
// health polls plus `/shard/v1/snapshot?since` catch-up — and re-serves
// the mirrored generation behind the identical wire surface
// (ReplicaRoutes), so routers consume a replica exactly like a primary
// for reads. Writes (apply, flush) answer 503/not_primary; when the
// primary dies the replica keeps serving its last mirrored generation,
// which is precisely the degraded-reads contract replication exists
// for.
type ReplicaServer struct {
	c       *Client
	primary string
	shardID int
	k       int

	globalNodes int
	maxNodes    int
	maxBody     int64
	draining    atomic.Bool
	shed        atomic.Uint64
	misses      atomic.Uint64 // chain requests answered with the full stream
}

// NewReplica connects to a primary shard server, mirrors its snapshot,
// and starts the background follow poller. Chained replication
// (following another replica) is refused: lag would compound silently
// and the `?since` table-prefix guarantees only hold one hop from the
// writer.
func NewReplica(ctx context.Context, primaryAddr string, cfg ReplicaConfig) (*ReplicaServer, error) {
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = 60 * time.Second
	}
	if cfg.MaxRequestBody <= 0 {
		cfg.MaxRequestBody = 32 << 20
	}
	base := normalizeAddr(primaryAddr)
	ctx, cancel := context.WithTimeout(ctx, cfg.ConnectTimeout)
	defer cancel()

	// Probe with a throwaway client first: the shard identity (shard
	// index, partition width) must be known before the real mirror
	// client can be constructed.
	probe := newClient(base, 0, 0, cfg.Client)
	var h Health
	for {
		hctx, hcancel := context.WithTimeout(ctx, probe.reqTO)
		var err error
		h, err = probe.health(hctx)
		hcancel()
		if err == nil {
			break
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("replica: probing primary %s: %w", primaryAddr, err)
		case <-time.After(250 * time.Millisecond):
		}
	}
	if h.Protocol != Version {
		return nil, fmt.Errorf("replica: primary %s speaks protocol %d, this build speaks %d", primaryAddr, h.Protocol, Version)
	}
	if h.Role == RoleReplica {
		return nil, fmt.Errorf("replica: %s is itself a replica (of %s): chained replication not supported", primaryAddr, h.Primary)
	}

	c := newClient(base, h.Shard, h.Shards, cfg.Client)
	c.links = &shard.Ring{}
	if _, err := c.handshake(ctx, primaryAddr, false); err != nil {
		c.Close()
		return nil, fmt.Errorf("replica: mirroring primary %s: %w", primaryAddr, err)
	}
	c.startPolling()
	return &ReplicaServer{
		c:           c,
		primary:     base,
		shardID:     h.Shard,
		k:           h.Shards,
		globalNodes: h.GlobalNodes,
		maxNodes:    h.MaxNodes,
		maxBody:     cfg.MaxRequestBody,
	}, nil
}

// Primary returns the upstream's base URL.
func (s *ReplicaServer) Primary() string { return s.primary }

// Shard returns the shard index this replica mirrors.
func (s *ReplicaServer) Shard() int { return s.shardID }

// Gen returns the mirrored generation (0 before the first sync).
func (s *ReplicaServer) Gen() uint64 { return s.c.MirrorGen() }

// Sync catches the mirror up with the primary now rather than at the
// next poll — past the negative cache a failed contact leaves, too: a
// chain of the publishes since the mirrored generation when the primary
// can answer one, the whole snapshot otherwise.
func (s *ReplicaServer) Sync(ctx context.Context) error {
	s.c.lastFail.Store(0)
	return s.c.syncSnapshotCtx(ctx)
}

// Mirror returns the mirrored generation (nil before the first sync) and
// the translation table replicated beside it.
func (s *ReplicaServer) Mirror() (*refresh.Snapshot, []int32) {
	var snap *refresh.Snapshot
	if m := s.c.mirror.Load(); m != nil {
		snap = m.snap
	}
	return snap, s.c.tableCopy()
}

// MirrorStats reports the mirror's transport counters: breaker, retries
// and deadlines, and the syncs by kind with the bytes they read.
func (s *ReplicaServer) MirrorStats() resilience.Stats { return s.c.ResilienceStats() }

// SetDraining flips the shutdown gate: while draining the replica
// advertises it in health so replica sets route new reads elsewhere;
// in-flight reads finish against the mirror.
func (s *ReplicaServer) SetDraining(v bool) { s.draining.Store(v) }

// Close stops the follow poller.
func (s *ReplicaServer) Close() { s.c.Close() }

// protocolMiddleware stamps and enforces the protocol-version header
// and imposes the client's Ocad-Deadline-Ms budget on the handler
// context — shared by the primary and replica servers so both surfaces
// negotiate identically. Requests whose budget is already spent are
// shed before dispatch (504, counted in shed).
func protocolMiddleware(mux http.Handler, shed *atomic.Uint64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderProtocol, strconv.Itoa(Version))
		if v := r.Header.Get(HeaderProtocol); v != "" && v != strconv.Itoa(Version) {
			writeCode(w, http.StatusBadRequest, CodeProtocolMismatch,
				"protocol version %s not supported, this server speaks %d", v, Version)
			return
		}
		r, cancel, ok := withDeadlineHeader(w, r)
		if !ok {
			return
		}
		defer cancel()
		if r.Context().Err() != nil {
			shed.Add(1)
			writeCode(w, http.StatusGatewayTimeout, CodeDeadlineExceeded,
				"caller deadline expired before dispatch")
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// Handler returns the replica's http.Handler — exactly the
// ReplicaRoutes manifest.
func (s *ReplicaServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathHealth, s.handleHealth)
	mux.HandleFunc("GET "+PathSnapshot, s.handleSnapshot)
	mux.HandleFunc("POST "+PathApply, s.handleNotPrimary)
	mux.HandleFunc("POST "+PathFlush, s.handleNotPrimary)
	mux.HandleFunc("POST "+PathLookup, s.handleLookup)
	mux.HandleFunc("GET "+PathMap, s.handleMapGet)
	mux.HandleFunc("POST "+PathMap, s.handleNotPrimary)
	mux.HandleFunc("POST "+PathIngest, s.handleNotPrimary)
	return protocolMiddleware(mux, &s.shed)
}

// mirroredMap is the partition map this replica re-advertises: the
// primary's last advertised map, or the epoch-0 base when the primary
// never advertised one.
func (s *ReplicaServer) mirroredMap() MapResponse {
	if mr := s.c.RemoteMap(); mr != nil {
		return *mr
	}
	pm, _ := shard.NewPartitionMap(s.k)
	return MapResponse{Epoch: 0, Map: pm.Encode()}
}

// handleMapGet re-serves the primary's partition map from the mirror —
// like every replica read, deliberately even while the primary is
// unreachable.
func (s *ReplicaServer) handleMapGet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.mirroredMap())
}

func (s *ReplicaServer) handleHealth(w http.ResponseWriter, _ *http.Request) {
	var info refresh.SnapshotInfo
	if m := s.c.mirror.Load(); m != nil && m.snap != nil {
		info = m.snap.Info()
	}
	mm := s.mirroredMap()
	writeJSON(w, http.StatusOK, Health{
		Epoch:        mm.Epoch,
		Map:          mm.Map,
		Protocol:     Version,
		Shard:        s.shardID,
		Shards:       s.k,
		GlobalNodes:  s.globalNodes,
		MaxNodes:     s.maxNodes,
		TableLen:     s.c.tableLen(),
		Draining:     s.draining.Load(),
		DeadlineShed: s.shed.Load(),
		ChainMisses:  s.misses.Load(),
		Role:         RoleReplica,
		Primary:      s.primary,
		Snapshot:     info,
		Status:       s.c.Status(),
	})
}

// handleSnapshot re-serves the mirrored generation — the same `?since`
// resolution a primary offers (serveSnapshot), chains included: out of
// the links its own mirror applied, so a router following this replica
// (or tooling) needs no special casing. Replication is
// append-only, so the table copy taken after the mirror load is a
// superset of the generation's prefix, the same invariant the primary
// maintains.
func (s *ReplicaServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	m := s.c.mirror.Load()
	if m == nil || m.snap == nil {
		retryAfter(w, s.c.pollIvl)
		writeCode(w, http.StatusServiceUnavailable, "", "no snapshot mirrored from primary yet")
		return
	}
	serveSnapshot(w, r, s.shardID, s.k, m.snap, m.instance, s.c.tableCopy, func(since uint64, head *refresh.Snapshot) ([]*shard.Link, bool) {
		return s.c.links.Chain(since, head.Gen)
	}, &s.misses)
}

// handleLookup answers from the mirror — deliberately even while the
// primary is unreachable: serving the last mirrored generation under a
// dead primary is the availability contract replicas exist to provide.
// The response's Generation tells the caller exactly how fresh the
// answer is.
func (s *ReplicaServer) handleLookup(w http.ResponseWriter, r *http.Request) {
	var req LookupRequest
	if !decodeJSONBody(w, r, s.maxBody, &req) {
		return
	}
	if len(req.IDs) == 0 {
		writeCode(w, http.StatusBadRequest, CodeBadRequest, "ids must name at least one node")
		return
	}
	m := s.c.mirror.Load()
	if m == nil || m.snap == nil {
		retryAfter(w, s.c.pollIvl)
		writeCode(w, http.StatusServiceUnavailable, "", "no snapshot mirrored from primary yet")
		return
	}
	view := shard.RemoteView(s.shardID, m.snap, s.c.Lookup, nil)
	writeJSON(w, http.StatusOK, answerLookup(view, req))
}

func (s *ReplicaServer) handleNotPrimary(w http.ResponseWriter, _ *http.Request) {
	// Retrying here is only useful after a failover promotes this
	// replica; a poll interval is the soonest that could be visible.
	retryAfter(w, s.c.pollIvl)
	writeCode(w, http.StatusServiceUnavailable, CodeNotPrimary,
		"read-only replica of %s: mutations must go to the primary", s.primary)
}
