// Package index provides an inverted node→community membership index
// over a cover.Cover. The index is the serving-side answer to the
// paper's titular query — "which communities does this node belong
// to?" — in O(memberships-of-node) per lookup instead of a linear scan
// over all communities.
//
// The index is stored CSR-style in two flat slices (offsets + community
// ids), is built in two passes over the cover, and is immutable after
// Build, making it safe for any number of concurrent readers.
package index

import (
	"fmt"

	"repro/internal/cover"
)

// Membership is an immutable inverted index from node id to the sorted
// list of community indices containing it. Safe for concurrent readers.
type Membership struct {
	offsets []int64 // len n+1; memberships of node v live in comms[offsets[v]:offsets[v+1]]
	comms   []int32 // community indices, ascending per node
	k       int     // number of communities indexed
}

// Build constructs the index for a cover over a graph with n nodes.
// Members outside [0, n) are ignored, matching cover.MembershipIndex.
// The cover must not be mutated while the index is in use.
func Build(cv *cover.Cover, n int) *Membership {
	ix := &Membership{offsets: make([]int64, n+1), k: cv.Len()}
	for _, c := range cv.Communities {
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
	// Communities are visited in ascending index order, so each node's
	// membership list comes out sorted.
	for ci, c := range cv.Communities {
		for _, v := range c {
			if v >= 0 && int(v) < n {
				ix.comms[fill[v]] = int32(ci)
				fill[v]++
			}
		}
	}
	return ix
}

// Permute returns the index relabeled by a community permutation —
// perm[old] is the new id of community old, as produced by
// cover.SortPerm on the indexed cover. Offsets are shared with prev
// (every node keeps the same membership count); only the id payload is
// remapped, and each node's short list re-sorted to restore the
// ascending-per-node invariant: O(memberships) total. An identity (or
// empty) permutation returns prev itself.
func Permute(prev *Membership, perm []int32) *Membership {
	if len(perm) != prev.k {
		panic(fmt.Sprintf("index: Permute got %d ids for %d communities", len(perm), prev.k))
	}
	identity := true
	for i, p := range perm {
		if int32(i) != p {
			identity = false
			break
		}
	}
	if identity {
		return prev
	}
	comms := make([]int32, len(prev.comms))
	for i, ci := range prev.comms {
		comms[i] = perm[ci]
	}
	ix := &Membership{offsets: prev.offsets, comms: comms, k: prev.k}
	// Membership lists are short (a node's overlap degree), so insertion
	// sort beats sort.Slice's interface overhead here.
	for v, n := 0, ix.N(); v < n; v++ {
		lst := comms[ix.offsets[v]:ix.offsets[v+1]]
		for i := 1; i < len(lst); i++ {
			for j := i; j > 0 && lst[j] < lst[j-1]; j-- {
				lst[j], lst[j-1] = lst[j-1], lst[j]
			}
		}
	}
	return ix
}

// N returns the number of nodes the index was built for.
func (ix *Membership) N() int { return len(ix.offsets) - 1 }

// NumCommunities returns the number of communities in the indexed cover.
func (ix *Membership) NumCommunities() int { return ix.k }

// Memberships returns the total number of (node, community) pairs.
func (ix *Membership) Memberships() int64 { return ix.offsets[len(ix.offsets)-1] }

// Communities returns the ascending community indices containing v as a
// view into the index; callers must not modify it. Nodes outside [0, N)
// and uncovered nodes yield an empty slice.
func (ix *Membership) Communities(v int32) []int32 {
	if v < 0 || int(v) >= ix.N() {
		return nil
	}
	return ix.comms[ix.offsets[v]:ix.offsets[v+1]]
}

// Degree returns the number of communities containing v.
func (ix *Membership) Degree(v int32) int { return len(ix.Communities(v)) }

// Covered reports whether v belongs to at least one community.
func (ix *Membership) Covered(v int32) bool { return ix.Degree(v) > 0 }

// CoverageCounts tallies membership over the nodes for which keep
// returns true (every node when keep is nil): how many belong to at
// least one community, how many to more than one, the total number of
// memberships and the largest Degree among them. The shard layer
// derives its owned-only Meta tallies from it, keeping only each
// shard's owned (non-ghost) nodes so boundary nodes are counted exactly
// once.
func (ix *Membership) CoverageCounts(keep func(int32) bool) (covered, overlapped int, memberships int64, maxDegree int) {
	for v := int32(0); int(v) < ix.N(); v++ {
		if keep != nil && !keep(v) {
			continue
		}
		d := ix.offsets[v+1] - ix.offsets[v]
		memberships += d
		if d > 0 {
			covered++
		}
		if d > 1 {
			overlapped++
		}
		maxDegree = max(maxDegree, int(d))
	}
	return covered, overlapped, memberships, maxDegree
}

// Common returns the ascending community indices containing every one
// of the given nodes — the k-way generalization of Shared behind the
// batch endpoint's "which groups do all these people share?" option.
// An empty intersection (including no ids, or any out-of-range or
// uncovered id) is nil. The result is freshly allocated and costs
// O(Σ Degree(id)).
func (ix *Membership) Common(ids []int32) []int32 {
	if len(ids) == 0 {
		return nil
	}
	acc := append([]int32(nil), ix.Communities(ids[0])...)
	for _, v := range ids[1:] {
		if len(acc) == 0 {
			break
		}
		next := ix.Communities(v)
		out := acc[:0]
		i, j := 0, 0
		for i < len(acc) && j < len(next) {
			switch {
			case acc[i] < next[j]:
				i++
			case acc[i] > next[j]:
				j++
			default:
				out = append(out, acc[i])
				i++
				j++
			}
		}
		acc = out
	}
	if len(acc) == 0 {
		return nil
	}
	return acc
}

// Shared returns the ascending community indices containing both u and
// v — the overlap question behind the paper's social-network use case
// ("which groups do these two people share?"). The result is freshly
// allocated and costs O(Degree(u) + Degree(v)).
func (ix *Membership) Shared(u, v int32) []int32 {
	return ix.Common([]int32{u, v})
}
