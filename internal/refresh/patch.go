package refresh

import (
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
)

// Patch is what one publish changed in the cover, relative to the
// generation before it: the cover-level twin of PatchContext, holding
// no pointer to the predecessor, so it can be serialised, shipped and
// applied to a copy of that predecessor elsewhere. The worker hangs it
// on the snapshot it produced (Snapshot.Patch); the persistence layer
// logs it beside the publish marker and recovers by folding patches
// instead of re-running OCA, whose covers cannot be re-derived bit for
// bit from a graph. Edge operations are not part of it — they are
// already recorded where they were accepted.
//
// A Patch is read off the assembled snapshot, after the Assemble hook
// (the shard layer's ghost filter included) and before the canonical
// sort, so one definition serves every snapshot layer.
type Patch struct {
	// Mode is the generation's RebuildMode.
	Mode string
	// Carried marks a rebuild that failed and published the new graph
	// with the previous cover: the generation has no Result, and the
	// next rebuild runs full to restore the merge fixpoint.
	Carried bool
	// C is the generation's inner-product parameter — logged, because
	// where the live worker re-derived it is not recoverable from the
	// mutations alone.
	C float64
	// DirtyNodes is Snapshot.DirtyNodes.
	DirtyNodes int
	// Removed lists, ascending, the previous generation's community ids
	// absent from this one's cover.
	Removed []int32
	// Fresh holds the communities appended after the survivors, in
	// patch order (the whole published cover on a full publish). The
	// member slices are the snapshot's own.
	Fresh []cover.Community
	// PrevNodes is the predecessor's node count, and Add and Remove the
	// edge operations the publish applied to its graph, resolved the way
	// graph.Delta.Net resolves them. With them the patch describes the
	// whole publish, so a mirror can replay it without the graph
	// (shard.Fold). In memory only: the WAL records the edge batches
	// where they were accepted, and its patch record does not change.
	PrevNodes   int
	Add, Remove [][2]int32
}

// ApplyCover returns the cover this patch turns prev into: prev's
// communities minus Removed, in order, then Fresh, then the stable
// canonical sort (cover.Less) every publish ends in. A patch that
// removes and adds nothing — the fastpath — returns prev itself. prev
// is not modified; the result shares its member slices.
//
// Removed must be ascending ids of prev; the caller validates a patch
// that crossed a trust boundary before applying it.
func (p *Patch) ApplyCover(prev *cover.Cover) *cover.Cover {
	if len(p.Removed) == 0 && len(p.Fresh) == 0 {
		return prev
	}
	cv := p.patchOrder(prev)
	cv.SortBySize()
	return cv
}

// patchOrder is the cover p turns prev into before the canonical sort:
// prev's communities minus Removed, in order, then Fresh.
func (p *Patch) patchOrder(prev *cover.Cover) *cover.Cover {
	comms := make([]cover.Community, 0, prev.Len()-len(p.Removed)+len(p.Fresh))
	gone := p.Removed
	for ci, c := range prev.Communities {
		if len(gone) > 0 && int(gone[0]) == ci {
			gone = gone[1:]
			continue
		}
		comms = append(comms, c)
	}
	return cover.NewCover(append(comms, p.Fresh...))
}

// Reassemble rebuilds the generation p produced from old, given its
// graph g, the way the publishing worker assembled it: assemble — the
// worker's Config.Assemble — is handed the cover in patch order, old's
// survivors then Fresh, with the PatchContext the worker built, and the
// result is put in canonical order. A receiver holding old so shares
// old's index and stats on a fastpath publish, and its assembler can
// carry forward what it derives from the batch alone. Gen, Seq, mode
// and dirty count are left to the caller, as Assemble leaves them.
func (p *Patch) Reassemble(old *Snapshot, g *graph.Graph, assemble func(*graph.Graph, *cover.Cover, *core.Result, float64, time.Duration, *PatchContext) *Snapshot) *Snapshot {
	pc := &PatchContext{Old: old, Kept: old.Cover.Len() - len(p.Removed), Add: p.Add, Remove: p.Remove}
	if len(p.Removed) == 0 && len(p.Fresh) == 0 {
		return assemble(g, old.Cover, nil, p.C, 0, pc) // the fastpath: old's cover, already canonical
	}
	snap := assemble(g, p.patchOrder(old.Cover), nil, p.C, 0, pc)
	canonicalizeOrder(snap)
	return snap
}

// replacePatch describes snap as a wholesale replacement of old's cover:
// every previous community removed, the whole assembled cover fresh.
// Full rebuilds and carry-overs publish this form.
func replacePatch(old, snap *Snapshot) *Patch {
	p := &Patch{Mode: snap.RebuildMode, Carried: snap.Result == nil, C: snap.C, DirtyNodes: snap.DirtyNodes}
	if old.Cover != nil {
		p.Removed = make([]int32, old.Cover.Len())
		for ci := range p.Removed {
			p.Removed[ci] = int32(ci)
		}
	}
	p.Fresh = snap.Cover.Communities
	return p
}

// diffPatch describes a fastpath or incremental snapshot whose cover is
// still in patch order. cv is the cover the assembler was handed;
// removed and kept describe it against old the way PatchContext does.
// The assembler may have dropped communities of its own (the shard
// layer's ghost filter): as long as it left the carried prefix alone
// the patch is the difference, otherwise — a hook that ignored the
// PatchContext and filtered from scratch — it is a replacement.
func diffPatch(old, snap *Snapshot, cv *cover.Cover, removed []bool, kept int) *Patch {
	got := snap.Cover.Communities
	if snap.Cover != cv && !samePrefix(got, cv.Communities, kept) {
		return replacePatch(old, snap)
	}
	p := &Patch{Mode: snap.RebuildMode, Carried: snap.Result == nil, C: snap.C, DirtyNodes: snap.DirtyNodes}
	for ci, gone := range removed {
		if gone {
			p.Removed = append(p.Removed, int32(ci))
		}
	}
	if kept < len(got) {
		p.Fresh = got[kept:]
	}
	return p
}

// samePrefix reports whether a[:n] and b[:n] are the same communities,
// by identity of their member slices.
func samePrefix(a, b []cover.Community, n int) bool {
	if len(a) < n {
		return false
	}
	for i := 0; i < n; i++ {
		if len(a[i]) != len(b[i]) || (len(a[i]) > 0 && &a[i][0] != &b[i][0]) {
			return false
		}
	}
	return true
}
