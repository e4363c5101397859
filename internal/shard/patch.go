package shard

// The shard layer's snapshot assembly: the one refresh.Config.Assemble
// hook. Every per-shard generation — from scratch or patched, published
// by a worker or rebuilt by a mirror — passes through Assemble, which
// decides ownership with one predicate (ownsLocal, over the partition
// map it is given) and uses it to ghost-filter the cover, then lets
// refresh.Assemble build the index and overlap stats, then attaches the
// ownership Meta. On the patched path only the fresh communities are
// filtered: the carried prefix survived the previous generation's
// filter under the same map, and the incremental merge only unions
// members into carried communities. The Meta's node and edge counts
// are carried forward by the batch's delta there, sparing buildMeta's
// pass over every neighbour list. That argument needs the map to be
// the one the previous generation was filtered under, hence the epoch
// rule: a patched generation inherits its predecessor's map, and when
// the given map's epoch has moved on the hook ignores the PatchContext
// and assembles from scratch — O(n+m) once per epoch change per shard.

import (
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/refresh"
)

// Assemble is the shard layer's one snapshot assembler, for shard
// shardID under partition map pm with locals the generation's
// local→global table prefix: drop ghost-only communities, assemble
// index/stats through refresh.Assemble, attach the shard Meta — built by
// buildMeta from scratch, or by patchMeta from the predecessor's when pc
// describes what changed.
func Assemble(shardID int, pm *PartitionMap, locals []int32, g *graph.Graph, cv *cover.Cover, res *core.Result, c float64, buildTime time.Duration, pc *refresh.PatchContext) *refresh.Snapshot {
	owns := ownsLocal(pm, shardID, locals)
	var oldMeta *Meta
	from := 0 // first community still to be ghost-filtered
	if pc != nil {
		if oldMeta, _ = pc.Old.Aux.(*Meta); oldMeta != nil && oldMeta.Map.Epoch == pm.Epoch {
			from = pc.Kept
		} else {
			pc = nil // nothing to patch from, or filtered under another map
		}
	}
	snap := refresh.Assemble(g, filterOwned(cv, from, owns), res, c, buildTime, pc)
	if pc == nil {
		snap.Aux = buildMeta(shardID, pm, g, snap.Index, locals)
	} else {
		snap.Aux = patchMeta(oldMeta, pc, snap, locals, owns)
	}
	return snap
}

// assemble is the worker's refresh.Config.Assemble hook (and, with pc
// == nil, how its first generation is built): Assemble under the
// worker's current map and table.
func (w *Worker) assemble(g *graph.Graph, cv *cover.Cover, res *core.Result, c float64, buildTime time.Duration, pc *refresh.PatchContext) *refresh.Snapshot {
	return Assemble(w.id, w.pm.Load(), w.localsPrefix(g.N()), g, cv, res, c, buildTime, pc)
}

// patchMeta derives the new generation's ownership metadata from the
// previous one's and the batch: the owned node and edge counts move by
// the batch's delta, O(|batch|) instead of buildMeta's O(n + m) pass
// over every neighbour list, and the membership tallies are read off
// the built index as buildMeta reads them (kept as they were when the
// index is the predecessor's own). Shard, K and Map are the
// predecessor's (see the epoch rule above).
func patchMeta(oldMeta *Meta, pc *refresh.PatchContext, snap *refresh.Snapshot, locals []int32, owns func(int32) bool) *Meta {
	old, ng := pc.Old, snap.Graph
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

	if snap.Index != old.Index {
		m.CoveredOwned, m.OverlapOwned, m.OwnedMemberships, m.MaxMembershipOwned = snap.Index.CoverageCounts(owns)
	}
	return &m
}
