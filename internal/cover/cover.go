// Package cover defines the community model shared by all algorithms: a
// Community is a set of node ids, a Cover is a (possibly overlapping)
// family of communities over a graph. Covers are the common currency
// between the search algorithms, the post-processing steps, the quality
// metrics and the file formats.
package cover

import (
	"sort"
)

// Community is a set of node ids, stored sorted ascending without
// duplicates. Construct one with NewCommunity (or sort/dedup manually
// when the invariant is already guaranteed).
type Community []int32

// NewCommunity copies, sorts and deduplicates the given members.
func NewCommunity(members []int32) Community {
	c := make(Community, len(members))
	copy(c, members)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	out := c[:0]
	for i, v := range c {
		if i > 0 && c[i-1] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// Contains reports membership of v via binary search.
func (c Community) Contains(v int32) bool {
	i := sort.Search(len(c), func(i int) bool { return c[i] >= v })
	return i < len(c) && c[i] == v
}

// IntersectionSize returns |c ∩ d| by merging the sorted member lists.
func (c Community) IntersectionSize(d Community) int {
	i, j, n := 0, 0, 0
	for i < len(c) && j < len(d) {
		switch {
		case c[i] < d[j]:
			i++
		case c[i] > d[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Union returns the sorted union of c and d as a new Community.
func (c Community) Union(d Community) Community {
	out := make(Community, 0, len(c)+len(d))
	i, j := 0, 0
	for i < len(c) && j < len(d) {
		switch {
		case c[i] < d[j]:
			out = append(out, c[i])
			i++
		case c[i] > d[j]:
			out = append(out, d[j])
			j++
		default:
			out = append(out, c[i])
			i++
			j++
		}
	}
	out = append(out, c[i:]...)
	out = append(out, d[j:]...)
	return out
}

// Equal reports whether c and d have identical members.
func (c Community) Equal(d Community) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// Cover is a family of communities. Communities may overlap and need not
// cover every node of the underlying graph.
type Cover struct {
	Communities []Community
}

// NewCover wraps the given communities (taking ownership).
func NewCover(cs []Community) *Cover { return &Cover{Communities: cs} }

// Len returns the number of communities.
func (cv *Cover) Len() int { return len(cv.Communities) }

// CoveredNodes returns the sorted set of nodes appearing in at least one
// community.
func (cv *Cover) CoveredNodes() []int32 {
	seen := make(map[int32]struct{})
	for _, c := range cv.Communities {
		for _, v := range c {
			seen[v] = struct{}{}
		}
	}
	out := make([]int32, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Coverage returns the fraction of the n graph nodes covered by at least
// one community.
func (cv *Cover) Coverage(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(len(cv.CoveredNodes())) / float64(n)
}

// MembershipIndex returns, for each node id < n, the list of community
// indices containing it (ascending). Useful for overlap analysis and
// inverted-index style matching; hot membership consumers use
// internal/index, which serves the same mapping from flat CSR slices
// (it cannot be used here — it imports this package).
func (cv *Cover) MembershipIndex(n int) [][]int32 {
	idx := make([][]int32, n)
	for ci, c := range cv.Communities {
		for _, v := range c {
			if v >= 0 && int(v) < n {
				idx[v] = append(idx[v], int32(ci))
			}
		}
	}
	return idx
}

// OverlapStats summarizes how much the cover overlaps.
type OverlapStats struct {
	Communities   int
	MinSize       int
	MaxSize       int
	MeanSize      float64
	CoveredNodes  int
	OverlapNodes  int     // nodes in >= 2 communities
	MeanMember    float64 // average memberships per covered node
	MaxMembership int
	Memberships   int64 // total (node, community) pairs
}

// Stats computes OverlapStats for a graph with n nodes.
func (cv *Cover) Stats(n int) OverlapStats {
	st := OverlapStats{Communities: cv.Len()}
	if cv.Len() == 0 {
		return st
	}
	st.MinSize = len(cv.Communities[0])
	total := 0
	for _, c := range cv.Communities {
		if len(c) < st.MinSize {
			st.MinSize = len(c)
		}
		if len(c) > st.MaxSize {
			st.MaxSize = len(c)
		}
		total += len(c)
	}
	st.MeanSize = float64(total) / float64(cv.Len())
	st.Memberships = int64(total)
	// Tally memberships per node in one flat pass; a node's count
	// crossing 1 or 2 marks it covered or overlapping. Members at or
	// past n (a cover over a larger node range) grow the tally.
	counts := make([]int32, n)
	for _, c := range cv.Communities {
		for _, v := range c {
			if int(v) >= len(counts) {
				counts = append(counts, make([]int32, int(v)+1-len(counts))...)
			}
			k := counts[v] + 1
			counts[v] = k
			switch k {
			case 1:
				st.CoveredNodes++
			case 2:
				st.OverlapNodes++
			}
			if int(k) > st.MaxMembership {
				st.MaxMembership = int(k)
			}
		}
	}
	if st.CoveredNodes > 0 {
		st.MeanMember = float64(st.Memberships) / float64(st.CoveredNodes)
	}
	return st
}

// PatchStats returns the OverlapStats of a cover derived from a
// previous one by removing and adding whole communities, without
// re-tallying every membership the way Stats does: size statistics are
// re-derived from the new cover's community lengths (O(communities)),
// and the node-membership tallies are adjusted only for the affected
// nodes — the members of the removed and added communities.
//
// affected must list each such node once; oldDeg and newDeg report a
// node's membership count in the previous and the new cover (an
// inverted index's Degree on either side). n is the new cover's node
// range, consulted only in the rare full re-scan below.
//
// MaxMembership can shrink only when a node holding the previous
// maximum lost memberships; exactly then newDeg is re-scanned over all
// n nodes — a flat pass with no allocation, still far cheaper than
// re-tallying, and skipped entirely on the common grow-or-stable case.
func PatchStats(prev OverlapStats, cv *Cover, n int, affected []int32, oldDeg, newDeg func(int32) int) OverlapStats {
	st := OverlapStats{
		Communities:   cv.Len(),
		CoveredNodes:  prev.CoveredNodes,
		OverlapNodes:  prev.OverlapNodes,
		MaxMembership: prev.MaxMembership,
		Memberships:   prev.Memberships,
	}
	if cv.Len() > 0 {
		st.MinSize = len(cv.Communities[0])
		total := 0
		for _, c := range cv.Communities {
			if len(c) < st.MinSize {
				st.MinSize = len(c)
			}
			if len(c) > st.MaxSize {
				st.MaxSize = len(c)
			}
			total += len(c)
		}
		st.MeanSize = float64(total) / float64(cv.Len())
	}
	maxMayDrop := false
	for _, v := range affected {
		od, nd := oldDeg(v), newDeg(v)
		if od == nd {
			continue
		}
		st.Memberships += int64(nd - od)
		switch {
		case od == 0 && nd > 0:
			st.CoveredNodes++
		case od > 0 && nd == 0:
			st.CoveredNodes--
		}
		switch {
		case od <= 1 && nd >= 2:
			st.OverlapNodes++
		case od >= 2 && nd <= 1:
			st.OverlapNodes--
		}
		if nd > st.MaxMembership {
			st.MaxMembership = nd
		}
		if nd < od && od >= prev.MaxMembership {
			maxMayDrop = true
		}
	}
	if maxMayDrop {
		m := 0
		for v := int32(0); int(v) < n; v++ {
			if d := newDeg(v); d > m {
				m = d
			}
		}
		st.MaxMembership = m
	}
	if st.CoveredNodes > 0 {
		st.MeanMember = float64(st.Memberships) / float64(st.CoveredNodes)
	}
	return st
}

// Clone deep-copies the cover.
func (cv *Cover) Clone() *Cover {
	out := make([]Community, len(cv.Communities))
	for i, c := range cv.Communities {
		cc := make(Community, len(c))
		copy(cc, c)
		out[i] = cc
	}
	return &Cover{Communities: out}
}

// Less reports whether community a precedes b in the canonical cover
// order: decreasing size, ties broken by lexicographic member
// comparison. The order is a pure function of the community sets, so
// two covers holding the same communities sort identically regardless
// of construction history — full and incremental rebuilds of the same
// cover publish byte-identical orderings.
func Less(a, b Community) bool {
	if len(a) != len(b) {
		return len(a) > len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// SortBySize orders communities canonically (see Less) for stable,
// reproducible output.
func (cv *Cover) SortBySize() {
	sort.SliceStable(cv.Communities, func(i, j int) bool {
		return Less(cv.Communities[i], cv.Communities[j])
	})
}

// SortPerm returns the permutation canonical sorting would apply —
// perm[old] is the sorted position of cv.Communities[old] — plus
// whether the cover is already canonically ordered (then perm is nil).
// It does not modify the cover: callers that maintain a derived
// structure keyed by community id (an inverted index) compute the
// permutation first and apply it to both sides.
func (cv *Cover) SortPerm() (perm []int32, sorted bool) {
	k := len(cv.Communities)
	order := make([]int32, k)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return Less(cv.Communities[order[i]], cv.Communities[order[j]])
	})
	sorted = true
	for i, o := range order {
		if int32(i) != o {
			sorted = false
			break
		}
	}
	if sorted {
		return nil, true
	}
	perm = make([]int32, k)
	for pos, o := range order {
		perm[o] = int32(pos)
	}
	return perm, false
}

// ApplyPerm reorders the communities by a permutation from SortPerm:
// the community at previous position i moves to perm[i].
func (cv *Cover) ApplyPerm(perm []int32) {
	out := make([]Community, len(cv.Communities))
	for i, c := range cv.Communities {
		out[perm[i]] = c
	}
	cv.Communities = out
}
