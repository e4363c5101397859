package shard

import (
	"slices"

	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/postprocess"
	"repro/internal/refresh"
)

// Meta is the shard-layer metadata attached to every per-shard
// refresh.Snapshot (as Snapshot.Aux): the local→global translation
// table for exactly that generation's node set, plus the shard's
// contribution to global aggregates, precomputed once per rebuild so
// observability endpoints stay O(K) per request.
type Meta struct {
	// Shard and K identify the shard within its partition; Epoch is the
	// partition-map epoch ownership was evaluated under.
	Shard int
	K     int
	Epoch uint64
	// Locals maps the snapshot graph's local node ids to global ids;
	// its length equals the snapshot graph's node count. The table is a
	// stable prefix of the shard's append-only mapping, so it is safe
	// for any number of concurrent readers.
	Locals []int32
	// OwnedNodes counts nodes this shard owns (non-ghosts).
	OwnedNodes int
	// OwnedEdges counts the global edges this shard is accountable for:
	// internal edges between two owned nodes, plus cross-shard edges
	// whose smaller-global-id endpoint is owned here. Summed over all
	// shards this is exactly the global edge count.
	OwnedEdges int64
	// CoveredOwned, OverlapOwned, OwnedMemberships and
	// MaxMembershipOwned tally cover membership over owned nodes only,
	// so aggregating across shards counts every global node exactly
	// once — and quotes numbers a lookup routed to the owning shard can
	// actually return (ghost copies may carry more memberships here
	// than their owner serves).
	CoveredOwned       int
	OverlapOwned       int
	OwnedMemberships   int64
	MaxMembershipOwned int
}

// ownsLocal is the shard layer's one ownership predicate: whether the
// node with the given local id belongs to shardID under pm — the
// modulo-K base plus any rebalanced range overrides. Ghost filtering
// and every owned-only tally decide ownership through it.
func ownsLocal(pm *PartitionMap, shardID int, locals []int32) func(int32) bool {
	return func(local int32) bool { return pm.ShardOf(locals[local]) == shardID }
}

// buildMeta computes a snapshot's Meta from scratch from its graph,
// index and translation table, with ownership evaluated under pm.
func buildMeta(shardID int, pm *PartitionMap, g *graph.Graph, ix *index.Membership, locals []int32) *Meta {
	m := &Meta{Shard: shardID, K: pm.K, Epoch: pm.Epoch, Locals: locals}
	owns := ownsLocal(pm, shardID, locals)
	for l := int32(0); int(l) < g.N(); l++ {
		if owns(l) {
			m.OwnedNodes++
			if d := ix.Degree(l); d > m.MaxMembershipOwned {
				m.MaxMembershipOwned = d
			}
		}
	}
	g.Edges(func(lu, lv int32) bool {
		ou, ov := owns(lu), owns(lv)
		if (ou && ov) || (ou && locals[lu] < locals[lv]) || (ov && locals[lv] < locals[lu]) {
			m.OwnedEdges++
		}
		return true
	})
	m.CoveredOwned, m.OverlapOwned, m.OwnedMemberships = ix.CoverageCounts(owns)
	return m
}

// filterOwned drops the communities of cv.Communities[from:] containing
// no owned node — artifacts of ghost-seeded searches that some other
// shard serves authoritatively. When nothing is dropped the input cover
// is returned as-is.
func filterOwned(cv *cover.Cover, from int, owns func(int32) bool) *cover.Cover {
	if cv == nil {
		return cover.NewCover(nil)
	}
	kept := cv.Communities[:from:from]
	for _, c := range cv.Communities[from:] {
		if slices.ContainsFunc(c, owns) {
			kept = append(kept, c)
		}
	}
	if len(kept) == cv.Len() {
		return cv
	}
	return cover.NewCover(kept)
}

// View is one shard's published generation plus the id translation a
// reader needs: handlers load one View per shard per request and answer
// entirely from it. The zero value is invalid; obtain Views from a
// provider (the Router, or SingleView for the unsharded path).
type View struct {
	// Shard is the shard index this view belongs to.
	Shard int
	// Snap is the generation the view reads from.
	Snap *refresh.Snapshot
	// Err is non-nil when the shard's backend is degraded — a remote
	// shard process down or unreachable. Snap is then the last mirrored
	// generation (possibly stale); handlers must answer the shard's
	// nodes with an explicit error instead of silently serving it.
	// Always nil for in-process shards.
	Err error
	// lookup resolves a global node id to this shard's local id; nil
	// means the identity mapping (the unsharded path).
	lookup func(int32) (int32, bool)
}

// RemoteView assembles a View for a mirrored remote shard snapshot —
// the transport package's client constructs its views through it. err
// marks the view degraded (see View.Err).
func RemoteView(shardID int, snap *refresh.Snapshot, lookup func(int32) (int32, bool), err error) View {
	return View{Shard: shardID, Snap: snap, Err: err, lookup: lookup}
}

// SingleView wraps an unsharded snapshot as shard 0's view with the
// identity translation, letting the single-graph and sharded serving
// paths share one code path.
func SingleView(snap *refresh.Snapshot) View { return View{Snap: snap} }

// Sharded reports whether this view translates ids (false on the
// unsharded path).
func (v View) Sharded() bool { return v.lookup != nil }

// Meta returns the shard metadata of the viewed snapshot, nil on the
// unsharded path (and on a degraded view with no snapshot).
func (v View) Meta() *Meta {
	if v.Snap == nil {
		return nil
	}
	m, _ := v.Snap.Aux.(*Meta)
	return m
}

// Owned returns the viewed snapshot's contribution to the global
// aggregates: the shard Meta's owned-only tallies, or — on the unsharded
// path, where every node is owned — the snapshot's own dimensions and
// overlap statistics in the same fields. The view must carry a snapshot.
func (v View) Owned() Meta {
	if m := v.Meta(); m != nil {
		return *m
	}
	g, st := v.Snap.Graph, v.Snap.Stats
	return Meta{
		K:                  1,
		OwnedNodes:         g.N(),
		OwnedEdges:         g.M(),
		CoveredOwned:       st.CoveredNodes,
		OverlapOwned:       st.OverlapNodes,
		OwnedMemberships:   st.Memberships,
		MaxMembershipOwned: st.MaxMembership,
	}
}

// Local resolves a global node id to the viewed snapshot's local id. It
// reports false for ids unknown to this generation — never seen, or
// pending growth not yet published.
func (v View) Local(global int32) (int32, bool) {
	if global < 0 || v.Snap == nil {
		return 0, false
	}
	if v.lookup == nil {
		if int(global) >= v.Snap.Graph.N() {
			return 0, false
		}
		return global, true
	}
	l, ok := v.lookup(global)
	if !ok || int(l) >= v.Snap.Graph.N() {
		return 0, false
	}
	return l, true
}

// Global translates a local node id of the viewed snapshot back to its
// global id.
func (v View) Global(local int32) int32 {
	if m := v.Meta(); m != nil {
		return m.Locals[local]
	}
	return local
}

// Members translates a community's local member list to global ids. On
// the unsharded path the input slice is returned unchanged (no copy),
// preserving the zero-allocation lookup path.
func (v View) Members(ms []int32) []int32 {
	m := v.Meta()
	if m == nil {
		return ms
	}
	out := make([]int32, len(ms))
	for i, l := range ms {
		out[i] = m.Locals[l]
	}
	return out
}

// MergeCovers assembles the global cover the sharded deployment serves:
// every shard's communities translated to global ids, with the paper's
// ρ-threshold merge collapsing the per-shard variants of boundary
// communities (a community spanning several shards is recovered — with
// slightly different halo visibility — by each of them; their union is
// the community). This is the offline/analysis view; the serving path
// keeps covers per shard so each rebuilds independently.
func MergeCovers(views []View) *cover.Cover {
	var comms []cover.Community
	for _, view := range views {
		for _, c := range view.Snap.Cover.Communities {
			comms = append(comms, cover.NewCommunity(view.Members(c)))
		}
	}
	return postprocess.Merge(cover.NewCover(comms), postprocess.DefaultMergeThreshold)
}

// ShardGen is one entry of a response's (shard, generation) vector.
// Err, when non-empty, marks the shard degraded: its backend could not
// be reached and Gen is the last generation the router mirrored (0 if
// none) — the explicit per-shard error a client checks before trusting
// a partial answer.
type ShardGen struct {
	Shard int    `json:"shard"`
	Gen   uint64 `json:"generation"`
	Err   string `json:"error,omitempty"`
}

// GenVector is the per-shard generation vector quoted in responses so
// clients can detect a lagging shard: entry i is shard i's generation
// at the time the response was assembled.
type GenVector []ShardGen

// VectorOf assembles the generation vector of a set of views, carrying
// each degraded view's error.
func VectorOf(views []View) GenVector {
	gv := make(GenVector, len(views))
	for i, v := range views {
		e := ShardGen{Shard: v.Shard}
		if v.Snap != nil {
			e.Gen = v.Snap.Gen
		}
		if v.Err != nil {
			e.Err = v.Err.Error()
		}
		gv[i] = e
	}
	return gv
}

// Max returns the highest generation in the vector (0 for an empty
// vector) — the scalar summary used where a single number is wanted.
func (gv GenVector) Max() uint64 {
	var max uint64
	for _, e := range gv {
		if e.Gen > max {
			max = e.Gen
		}
	}
	return max
}

// WorkerStatus pairs one shard's refresh.Status with its identity and
// active inner-product parameter, for observability endpoints.
type WorkerStatus struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// C is the inner-product parameter active in the shard's current
	// snapshot (0 when not yet derived, e.g. an edgeless shard).
	C float64 `json:"c,omitempty"`
	// Status is the shard worker's point-in-time view. For a remote
	// shard it is the last successful health probe.
	Status refresh.Status `json:"status"`
	// Err, when non-empty, marks the status stale: the shard's backend
	// is unreachable and Status is the last probe that succeeded.
	// Always empty for in-process shards.
	Err string `json:"error,omitempty"`
}
