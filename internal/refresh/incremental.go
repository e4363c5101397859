package refresh

// The dirty-region rebuild engine: make a rebuild cost proportional to
// the mutation batch, not the graph. The paper's fitness L(S) depends
// only on |S| and Ein(S), so a mutation can change the optimality of a
// community only if it touches the community's neighborhood — every
// community containing no mutated endpoint is exactly as locally
// optimal as before. A small batch therefore dirties only the mutated
// endpoints plus the members of the communities they touch; OCA is
// re-seeded over that region alone (core.Options.Restrict), fresh
// discoveries are folded into the carried cover incrementally
// (postprocess.MergeInto) and the inverted index and overlap stats are
// patched (index.Patch, cover.PatchStats) instead of rebuilt.

import (
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/postprocess"
)

// planRebuild decides how the taken batch is applied: ModeFastpath
// (publish without OCA), ModeIncremental (dirty-region scoped run) or
// ModeFull (today's whole-graph path). touchedComms are the previous
// generation's communities containing a mutated endpoint, nil unless
// the incremental engine is eligible.
func (w *Worker) planRebuild(old *Snapshot, touched []int32, ops []op, rederive bool) (mode string, touchedComms []int32) {
	if w.cfg.IncrementalThreshold <= 0 || w.cfg.DisableWarmStart ||
		w.cfg.OCA.AssignOrphans || rederive || old.Cover == nil || old.Index == nil {
		return ModeFull, nil
	}
	// MergeInto's premise is that the carried cover is a Merge fixpoint
	// (warm pairs need no re-testing). A generation with no Result —
	// a preloaded cover file, or a carry-over after a failed rebuild —
	// never went through the merge, so near-duplicates could persist
	// forever on the incremental path; one full rebuild restores the
	// invariant and re-enables the engine.
	if old.Result == nil {
		return ModeFull, nil
	}
	touchedComms = touchedCommunities(old.Index, touched)
	if len(touchedComms) == 0 {
		// No community contains a mutated endpoint. Removals between
		// uncovered nodes cannot create or destroy structure: publish
		// the new graph with the cover untouched. Additions can seed new
		// structure in an uncovered region, so they take the scoped run
		// (with an empty touched set the dirty region is just the
		// endpoints — the cheapest possible OCA, and the path that
		// bootstraps covers on initially empty graphs).
		if !hasEffectiveAdd(old.Graph, ops) {
			return ModeFastpath, nil
		}
		return ModeIncremental, nil
	}
	if float64(len(touchedComms)) > w.cfg.IncrementalThreshold*float64(old.Cover.Len()) {
		return ModeFull, nil
	}
	return ModeIncremental, touchedComms
}

// hasEffectiveAdd reports whether any operation adds an edge absent
// from g (adds of existing edges and removals never create structure).
func hasEffectiveAdd(g *graph.Graph, ops []op) bool {
	n := g.N()
	for _, o := range ops {
		if o.del {
			continue
		}
		if int(o.u) >= n || int(o.v) >= n || !g.HasEdge(o.u, o.v) {
			return true
		}
	}
	return false
}

// touchedCommunities returns the sorted distinct communities of ix
// containing any of the touched nodes (ascending for free: one pass
// over the flag array).
func touchedCommunities(ix *index.Membership, touched []int32) []int32 {
	seen := make([]bool, ix.NumCommunities())
	for _, v := range touched {
		for _, ci := range ix.Communities(v) {
			seen[ci] = true
		}
	}
	var out []int32
	for ci, s := range seen {
		if s {
			out = append(out, int32(ci))
		}
	}
	return out
}

// dirtyRegion is the node set an incremental rebuild re-seeds over: the
// mutated endpoints plus every member of a touched community, deduped.
func dirtyRegion(cv *cover.Cover, touched, touchedComms []int32, n int) []int32 {
	seen := ds.NewBitset(n)
	dirty := make([]int32, 0, len(touched))
	for _, v := range touched {
		if int(v) < n && seen.Add(v) {
			dirty = append(dirty, v)
		}
	}
	for _, ci := range touchedComms {
		for _, v := range cv.Communities[ci] {
			if int(v) < n && seen.Add(v) {
				dirty = append(dirty, v)
			}
		}
	}
	return dirty
}

// PatchContext describes what a fastpath or incremental rebuild
// changed relative to the previous generation, handed to the assembler
// (Config.Assemble) so the index, stats and any custom layer's derived
// state are patched instead of rebuilt.
type PatchContext struct {
	// Old is the previous generation the new cover was derived from.
	Old *Snapshot
	// Removed flags the previous generation's communities absent from
	// the new cover: the ones touched by the batch plus carried
	// communities that absorbed a fresh discovery during the
	// incremental merge. Nil on the fastpath (nothing removed). Indexed
	// by previous community id; suitable for index.Patch.
	Removed []bool
	// Kept counts the carried communities: the new cover's
	// Communities[:Kept] are survivors of the previous generation in
	// their previous relative order, Communities[Kept:] are fresh. On
	// the fastpath Kept is the whole (pointer-identical) cover.
	Kept int
	// Add and Remove are the batch's edge operations in the graph's own
	// id space (already applied to the new graph; adds of existing
	// edges and removals of absent ones are included and changed
	// nothing).
	Add, Remove [][2]int32
}

// patchContext describes a taken batch for the assembler, separating
// its operations back into add and remove pairs.
func patchContext(old *Snapshot, removed []bool, kept int, ops []op) *PatchContext {
	pc := &PatchContext{Old: old, Removed: removed, Kept: kept}
	for _, o := range ops {
		if o.del {
			pc.Remove = append(pc.Remove, [2]int32{o.u, o.v})
		} else {
			pc.Add = append(pc.Add, [2]int32{o.u, o.v})
		}
	}
	return pc
}

// fastpathSnapshot publishes ng with the previous cover carried over
// unchanged: no OCA, the index extended (shared outright when the node
// set did not grow) and the stats reused. The graph still changed, so
// the assembler is told which edges did.
func (w *Worker) fastpathSnapshot(old *Snapshot, ng *graph.Graph, ops []op, start time.Time) *Snapshot {
	snap := w.cfg.Assemble(ng, old.Cover, old.Result, old.C, time.Since(start),
		patchContext(old, nil, old.Cover.Len(), ops))
	snap.RebuildMode = ModeFastpath
	snap.Patch = diffPatch(old, snap, old.Cover, nil, old.Cover.Len())
	return snap
}

// incrementalSnapshot runs the dirty-region rebuild: a scoped OCA run
// seeded only over the dirty region, MergeInto against the carried
// cover, and index/stats patching. Errors fall back to the caller's
// carry-over path.
func (w *Worker) incrementalSnapshot(old *Snapshot, ng *graph.Graph, opt core.Options, ops []op, touched, touchedComms []int32, start time.Time) (*Snapshot, error) {
	dirty := dirtyRegion(old.Cover, touched, touchedComms, ng.N())

	removed := make([]bool, old.Cover.Len())
	for _, ci := range touchedComms {
		removed[ci] = true
	}
	warm := make([]cover.Community, 0, old.Cover.Len()-len(touchedComms))
	warmOldID := make([]int32, 0, old.Cover.Len()-len(touchedComms))
	for ci, c := range old.Cover.Communities {
		if !removed[ci] {
			warm = append(warm, c)
			warmOldID = append(warmOldID, int32(ci))
		}
	}

	// The scoped run: warm communities steer seeding and halting away
	// from known structure but are not re-merged globally — merging is
	// done incrementally below, against candidates from the previous
	// generation's index.
	opt.Warm = warm
	opt.Restrict = dirty
	opt.DisableMerge = true
	res, err := core.Run(ng, opt)
	if err != nil {
		return nil, err
	}

	var (
		cv      *cover.Cover
		kept    int
		keptOld []int32
	)
	if w.cfg.OCA.DisableMerge {
		comms := make([]cover.Community, 0, len(warm)+len(res.Fresh))
		comms = append(comms, warm...)
		comms = append(comms, res.Fresh...)
		cv, kept, keptOld = cover.NewCover(comms), len(warm), warmOldID
	} else {
		mt := w.cfg.OCA.MergeThreshold
		if mt <= 0 {
			mt = postprocess.DefaultMergeThreshold
		}
		cv, kept, keptOld = postprocess.MergeInto(warm, warmOldID, old.Index, res.Fresh, mt)
	}
	res.Cover = cv

	// removedAll covers both the touched communities and the warm ones
	// that absorbed a fresh discovery.
	removedAll := make([]bool, old.Cover.Len())
	for i := range removedAll {
		removedAll[i] = true
	}
	for _, id := range keptOld {
		removedAll[id] = false
	}

	snap := w.cfg.Assemble(ng, cv, res, res.C, time.Since(start),
		patchContext(old, removedAll, kept, ops))
	snap.RebuildMode = ModeIncremental
	snap.DirtyNodes = len(dirty)
	snap.Dirty = dirty
	// The patch reads the cover in patch order: describe, then sort.
	snap.Patch = diffPatch(old, snap, cv, removedAll, kept)
	canonicalizeOrder(snap)
	return snap, nil
}

// canonicalizeOrder re-publishes snap's cover in the canonical
// size-sorted order (cover.Less) with the inverted index permuted to
// match, so incremental generations expose the same deterministic
// ordering as full rebuilds (core.Run sorts before returning). It must
// run after all patch-order consumers: index.Patch's kept-prefix
// contract and the PatchContext both describe the cover in patch
// order, so sorting is the last assembly step — O(k log k +
// memberships) against the O(|dirty region|) patch, and only when the
// order actually changed. The fastpath is exempt: it aliases the
// previous (already canonical) generation's cover, which must stay
// immutable.
func canonicalizeOrder(snap *Snapshot) {
	if snap.Cover == nil || snap.Index == nil {
		return
	}
	perm, sorted := snap.Cover.SortPerm()
	if sorted {
		return
	}
	snap.Cover.ApplyPerm(perm)
	snap.Index = index.Permute(snap.Index, perm)
}

// AffectedNodes lists (once each) the nodes whose membership degree may
// differ between the previous cover and a patched one: members of
// removed previous communities (removed is indexed by previous
// community id; nil removes nothing) and of added ones. It is the node
// set a stats patch must re-tally (see cover.PatchStats); the shard
// layer patches its owned-only tallies over the same set.
func AffectedNodes(oldCv *cover.Cover, removed []bool, added []cover.Community, n int) []int32 {
	seen := ds.NewBitset(n)
	var out []int32
	collect := func(c cover.Community) {
		for _, v := range c {
			if v >= 0 && int(v) < n && seen.Add(v) {
				out = append(out, v)
			}
		}
	}
	for ci, gone := range removed {
		if gone {
			collect(oldCv.Communities[ci])
		}
	}
	for _, c := range added {
		collect(c)
	}
	return out
}
