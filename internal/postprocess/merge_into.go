package postprocess

// Incremental counterpart of Merge: fold freshly discovered communities
// into a warm cover without re-testing the warm communities against each
// other. The warm cover is the previous generation's cover minus the
// communities a mutation batch touched — those communities were already
// pairwise non-mergeable (Merge ran to fixpoint when that generation was
// built) and did not change, so only pairs involving a fresh community,
// or a warm community that just absorbed one, can newly cross the ρ
// threshold. Candidates are found through the previous generation's
// membership index instead of an index rebuilt over the whole cover, so
// the cost is proportional to the fresh communities' memberships, not to
// the cover.

import (
	"sort"

	"repro/internal/cover"
	"repro/internal/index"
	"repro/internal/metrics"
)

// MergeInto merges fresh communities into the warm cover and returns
// the combined result.
//
// warm lists the carried communities in ascending previous-cover id
// order; warmOldID gives each one's community id in that previous
// cover, and prevIx is that cover's membership index (candidate
// discovery for warm partners runs through it). fresh are the scoped
// run's new discoveries. Input slices are never mutated; warm member
// slices are aliased into the result unless they merge.
//
// The returned cover is in patch order: cv.Communities[:kept] are the
// warm communities that survived unchanged, still in ascending
// previous-id order, and cv.Communities[kept:] are new or changed.
// keptOld lists the unchanged communities' previous-cover ids
// (ascending). The caller removes every previous id not in keptOld and
// adds cv.Communities[kept:].
func MergeInto(warm []cover.Community, warmOldID []int32, prevIx *index.Membership, fresh []cover.Community, threshold float64) (cv *cover.Cover, kept int, keptOld []int32) {
	w, f := len(warm), len(fresh)
	// Slot layout: warm occupy [0, w), fresh [w, w+f). members starts as
	// aliases; a slot's slice is replaced (copy-on-write via Union) when
	// it absorbs a partner.
	members := make([]cover.Community, 0, w+f)
	members = append(members, warm...)
	members = append(members, fresh...)
	changed := make([]bool, w+f)
	dead := make([]bool, w+f)
	redirect := make([]int32, w+f)
	for i := range redirect {
		redirect[i] = int32(i)
	}
	// live follows redirect chains with path compression: a slot merged
	// away forwards to its absorber.
	var live func(int32) int32
	live = func(i int32) int32 {
		if redirect[i] != i {
			redirect[i] = live(redirect[i])
		}
		return redirect[i]
	}

	// warmSlot maps a previous-cover community id to its warm slot (-1
	// when that community was dropped as touched).
	warmSlot := make([]int32, prevIx.NumCommunities())
	for i := range warmSlot {
		warmSlot[i] = -1
	}
	for i, oldID := range warmOldID {
		warmSlot[oldID] = int32(i)
	}
	// freshIdx is the inverted index over the fresh communities only —
	// the one piece prevIx cannot supply.
	freshIdx := make(map[int32][]int32)
	for fi, c := range fresh {
		for _, v := range c {
			freshIdx[v] = append(freshIdx[v], int32(w+fi))
		}
	}

	seen := make([]int32, w+f)
	stamp := int32(0)
	// Process each fresh slot; a slot that grows is reprocessed, because
	// its larger member set can reach new candidates (including
	// warm–warm pairs bridged by the absorbed fresh community).
	queue := make([]int32, 0, f)
	for fi := 0; fi < f; fi++ {
		queue = append(queue, int32(w+fi))
	}
	for len(queue) > 0 {
		i := live(queue[0])
		queue = queue[1:]
		if dead[i] {
			continue
		}
		stamp++
		merged := false
		// Candidates sharing at least one node with slot i, through the
		// previous index (warm partners) and the fresh index.
		var cands []int32
		addCand := func(j int32) {
			j = live(j)
			if j != i && !dead[j] && seen[j] != stamp {
				seen[j] = stamp
				cands = append(cands, j)
			}
		}
		for _, v := range members[i] {
			for _, oldID := range prevIx.Communities(v) {
				if ws := warmSlot[oldID]; ws >= 0 {
					addCand(ws)
				}
			}
			for _, fj := range freshIdx[v] {
				addCand(fj)
			}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a] < cands[b] })
		for _, j := range cands {
			if dead[j] {
				continue
			}
			if metrics.Rho(members[i], members[j]) >= threshold {
				members[i] = members[i].Union(members[j])
				dead[j] = true
				redirect[j] = i
				changed[i] = true
				merged = true
			}
		}
		if merged {
			queue = append(queue, i)
		}
	}

	// Assemble: unchanged warm first (slot order = ascending previous
	// id), then everything new or changed.
	out := make([]cover.Community, 0, w+f)
	for i := 0; i < w; i++ {
		if !dead[i] && !changed[i] {
			out = append(out, members[i])
			keptOld = append(keptOld, warmOldID[i])
		}
	}
	kept = len(out)
	for i := 0; i < w+f; i++ {
		if dead[i] || (i < w && !changed[i]) {
			continue
		}
		out = append(out, members[i])
	}
	return cover.NewCover(out), kept, keptOld
}
