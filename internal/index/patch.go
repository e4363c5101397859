package index

import (
	"fmt"

	"repro/internal/cover"
)

// Patch builds the index of a cover derived from prev's cover by
// removing some communities and appending new ones, editing prev's flat
// CSR slices by filtered copy instead of re-traversing the whole cover
// the way Build does: kept memberships stream straight from prev's
// arrays (one branch per membership, cache-friendly), and only the
// added communities' members are visited at all.
//
// The contract matches what refresh's incremental rebuild produces (see
// postprocess.MergeInto): the new cover keeps the surviving communities
// of prev's cover in their previous relative order, ahead of all added
// ones. Kept community ids therefore stay monotone and added ids exceed
// them, so every node's membership list remains sorted without a
// per-node sort. removed is indexed by previous community id and must
// cover all of them; n is the new node count and may exceed prev.N()
// (grown nodes are isolated and uncovered). Added members outside
// [0, n) are ignored, matching Build.
//
// Pure growth — nothing removed, nothing added, larger n — extends the
// offsets table and shares prev's membership array outright; a nil/nil
// patch at the same n returns prev itself.
//
// Production no longer calls Patch: every publish builds its index
// with Build, which is faster at every size measured. It stays only
// because the benchmark's stage replay times it (the index.patch span);
// removing that replay (ROADMAP item 20) deletes it.
func Patch(prev *Membership, removed []bool, added []cover.Community, n int) *Membership {
	if len(removed) != 0 && len(removed) != prev.k {
		panic(fmt.Sprintf("index: Patch removed has %d entries for %d communities", len(removed), prev.k))
	}
	pn := prev.N()
	if n < pn {
		panic(fmt.Sprintf("index: Patch shrinks the node set from %d to %d", pn, n))
	}
	anyRemoved := false
	for _, r := range removed {
		if r {
			anyRemoved = true
			break
		}
	}
	if !anyRemoved && len(added) == 0 {
		if n == pn {
			return prev
		}
		// Pure growth: new nodes are uncovered, so the membership array
		// is unchanged and only the offsets table extends.
		offsets := make([]int64, n+1)
		copy(offsets, prev.offsets)
		for v := pn + 1; v <= n; v++ {
			offsets[v] = offsets[pn]
		}
		return &Membership{offsets: offsets, comms: prev.comms, k: prev.k}
	}

	// newID maps surviving previous community ids to their ids in the
	// new cover; kept counts them.
	newID := make([]int32, prev.k)
	kept := int32(0)
	for ci := range newID {
		if anyRemoved && removed[ci] {
			newID[ci] = -1
			continue
		}
		newID[ci] = kept
		kept++
	}

	ix := &Membership{offsets: make([]int64, n+1), k: int(kept) + len(added)}
	for v := 0; v < pn; v++ {
		for _, ci := range prev.comms[prev.offsets[v]:prev.offsets[v+1]] {
			if newID[ci] >= 0 {
				ix.offsets[v+1]++
			}
		}
	}
	for _, c := range added {
		for _, v := range c {
			if v >= 0 && int(v) < n {
				ix.offsets[v+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		ix.offsets[v+1] += ix.offsets[v]
	}
	ix.comms = make([]int32, ix.offsets[n])
	fill := make([]int64, n)
	copy(fill, ix.offsets[:n])
	// Kept memberships first: prev's per-node lists are ascending and
	// newID is monotone over survivors, so the copied prefix is sorted.
	for v := 0; v < pn; v++ {
		for _, ci := range prev.comms[prev.offsets[v]:prev.offsets[v+1]] {
			if id := newID[ci]; id >= 0 {
				ix.comms[fill[v]] = id
				fill[v]++
			}
		}
	}
	// Added memberships after: their ids all exceed the kept ids and
	// are assigned in visit order, keeping each node's list sorted.
	for ai, c := range added {
		id := kept + int32(ai)
		for _, v := range c {
			if v >= 0 && int(v) < n {
				ix.comms[fill[v]] = id
				fill[v]++
			}
		}
	}
	return ix
}
