package shard

// The shard layer's snapshot assembly: the one refresh.Config.Assemble
// hook. Every per-shard generation — from scratch or patched — passes
// through Worker.assemble, which decides ownership with one predicate
// (ownsLocal, over the worker's current PartitionMap) and uses it to
// ghost-filter the cover, then lets refresh.Assemble build or patch the
// index and overlap stats, then attaches the ownership Meta. On the
// patched path only the fresh communities are filtered: the carried
// prefix survived the previous generation's filter under the same map,
// and the incremental merge only unions members into carried
// communities. That argument needs the map to be the one the previous
// generation was filtered under, hence the epoch rule: a patched
// generation inherits its predecessor's epoch, and when the map's epoch
// has moved on the hook ignores the PatchContext and assembles from
// scratch — O(n+m) once per epoch change per shard.

import (
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/refresh"
)

// assemble is the refresh.Config.Assemble hook (and, with pc == nil,
// how the worker's first generation is built): drop ghost-only
// communities, assemble index/stats through refresh.Assemble, attach
// the shard Meta — built by buildMeta from scratch, or adjusted by
// patchMeta in O(|batch| + |affected|) when pc describes what changed.
func (w *Worker) assemble(g *graph.Graph, cv *cover.Cover, res *core.Result, c float64, buildTime time.Duration, pc *refresh.PatchContext) *refresh.Snapshot {
	pm := w.pm.Load()
	locals := w.localsPrefix(g.N())
	owns := ownsLocal(pm, w.id, locals)

	var oldMeta *Meta
	from := 0 // first community still to be ghost-filtered
	if pc != nil {
		if oldMeta, _ = pc.Old.Aux.(*Meta); oldMeta != nil && oldMeta.Epoch == pm.Epoch {
			from = pc.Kept
		} else {
			pc = nil // nothing to patch from, or filtered under another map
		}
	}
	snap := refresh.Assemble(g, filterOwned(cv, from, owns), res, c, buildTime, pc)
	if pc == nil {
		snap.Aux = buildMeta(w.id, pm, g, snap.Index, locals)
	} else {
		snap.Aux = patchMeta(oldMeta, pc, snap, locals, owns)
	}
	return snap
}

// patchMeta adjusts the previous generation's ownership metadata for
// the batch: O(|batch| + |affected|) instead of buildMeta's O(n + m)
// rescan, except the rare full membership re-scan when the owned
// membership maximum may have shrunk (mirroring cover.PatchStats).
// Shard, K and Epoch are the predecessor's (see the epoch rule above).
func patchMeta(oldMeta *Meta, pc *refresh.PatchContext, snap *refresh.Snapshot, locals []int32, owns func(int32) bool) *Meta {
	old, ng, ix := pc.Old, snap.Graph, snap.Index
	m := *oldMeta
	m.Locals = locals

	// Node growth: every local id past the previous graph is new here
	// (owned only when a mutation named a new globally-owned id).
	oldN := old.Graph.N()
	for l := oldN; l < ng.N(); l++ {
		if owns(int32(l)) {
			m.OwnedNodes++
		}
	}

	// Accountable-edge delta: compare each distinct mutated pair's
	// presence in the previous and new graphs — adds of existing edges
	// and removals of absent ones cancel out here exactly as they did in
	// the graph delta.
	seen := make(map[[2]int32]struct{}, len(pc.Add)+len(pc.Remove))
	visit := func(u, v int32) {
		if u > v {
			u, v = v, u
		}
		p := [2]int32{u, v}
		if _, dup := seen[p]; dup {
			return
		}
		seen[p] = struct{}{}
		was := int(u) < oldN && int(v) < oldN && old.Graph.HasEdge(u, v)
		is := ng.HasEdge(u, v)
		if was == is {
			return
		}
		gu, gv := locals[u], locals[v]
		ou, ov := owns(u), owns(v)
		// Same accountability rule as buildMeta: internal edges, plus
		// cross-shard edges whose smaller-global-id endpoint is owned.
		accountable := (ou && ov) || (ou && gu < gv) || (ov && gv < gu)
		if !accountable {
			return
		}
		if is {
			m.OwnedEdges++
		} else {
			m.OwnedEdges--
		}
	}
	for _, e := range pc.Add {
		visit(e[0], e[1])
	}
	for _, e := range pc.Remove {
		visit(e[0], e[1])
	}

	// Membership tallies over the affected owned nodes, mirroring
	// cover.PatchStats for the owned-only aggregates.
	maxMayDrop := false
	for _, v := range refresh.AffectedNodes(old.Cover, pc.Removed, snap.Cover.Communities[pc.Kept:], ng.N()) {
		if !owns(v) {
			continue
		}
		od, nd := old.Index.Degree(v), ix.Degree(v)
		if od == nd {
			continue
		}
		m.OwnedMemberships += int64(nd - od)
		switch {
		case od == 0 && nd > 0:
			m.CoveredOwned++
		case od > 0 && nd == 0:
			m.CoveredOwned--
		}
		switch {
		case od <= 1 && nd >= 2:
			m.OverlapOwned++
		case od >= 2 && nd <= 1:
			m.OverlapOwned--
		}
		if nd > m.MaxMembershipOwned {
			m.MaxMembershipOwned = nd
		}
		if nd < od && od >= oldMeta.MaxMembershipOwned {
			maxMayDrop = true
		}
	}
	if maxMayDrop {
		max := 0
		for l := int32(0); int(l) < ng.N(); l++ {
			if owns(l) {
				if d := ix.Degree(l); d > max {
					max = d
				}
			}
		}
		m.MaxMembershipOwned = max
	}
	return &m
}
