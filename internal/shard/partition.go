// The deterministic modulo-K partition and the ghost-halo split (see
// doc.go for the package overview).

package shard

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Partition is the deterministic node→shard assignment a graph is first
// split under: node v belongs to shard v mod K, i.e. the epoch-0
// PartitionMap. The zero value is invalid; use NewPartition.
type Partition struct {
	pm PartitionMap
}

// NewPartition returns the modulo-K partition. K must be at least 1.
func NewPartition(k int) (Partition, error) {
	if k < 1 {
		return Partition{}, fmt.Errorf("shard: K=%d must be at least 1", k)
	}
	return Partition{pm: PartitionMap{K: k}}, nil
}

// K returns the number of shards.
func (p Partition) K() int { return p.pm.K }

// Shard returns the shard owning node v. Negative ids are the caller's
// responsibility to reject.
func (p Partition) Shard(v int32) int { return p.pm.ShardOf(v) }

// Piece is one shard's slice of a Split graph: the owned nodes plus a
// ghost halo of their cross-shard neighbors, renumbered to a dense
// local id space.
type Piece struct {
	// Shard is this piece's index in [0, K).
	Shard int
	// Graph is the local CSR graph: owned nodes first (ascending global
	// id), then ghosts (ascending global id), with every edge of the
	// original graph whose endpoints both lie in that node set.
	Graph *graph.Graph
	// Locals maps each local node id to its global id.
	Locals []int32
	// Owned counts the owned nodes; locals at or beyond it are ghosts.
	Owned int
}

// Owns reports whether the given local node id is owned by this piece
// (as opposed to being a ghost copy of another shard's node).
func (pc *Piece) Owns(local int32) bool { return int(local) < pc.Owned }

// Split partitions g into k node-disjoint pieces under the modulo-K
// partition, each with its ghost halo. Every global edge appears in the
// piece(s) that own at least one endpoint, and additionally in any
// piece ghosting both endpoints — so each piece's graph is the induced
// subgraph on (owned ∪ ghosts). Split is deterministic: equal inputs
// yield identical pieces.
func Split(g *graph.Graph, k int) ([]Piece, error) {
	p, err := NewPartition(k)
	if err != nil {
		return nil, err
	}
	n := g.N()
	pieces := make([]Piece, k)
	for s := 0; s < k; s++ {
		pieces[s] = splitOne(g, p, s, n)
	}
	return pieces, nil
}

// SplitOne materializes a single shard's piece of the modulo-K split —
// what a shard-server process needs — at O(piece) cost instead of
// building all K pieces the way Split does. SplitOne(g, k, s) equals
// Split(g, k)[s] exactly.
func SplitOne(g *graph.Graph, k, s int) (Piece, error) {
	p, err := NewPartition(k)
	if err != nil {
		return Piece{}, err
	}
	if s < 0 || s >= k {
		return Piece{}, fmt.Errorf("shard: index %d out of range [0, %d)", s, k)
	}
	return splitOne(g, p, s, g.N()), nil
}

func splitOne(g *graph.Graph, p Partition, s, n int) Piece {
	// Owned nodes ascending, then their cross-shard neighbors ascending.
	var locals []int32
	for v := int32(s); int(v) < n; v += int32(p.K()) {
		locals = append(locals, v)
	}
	owned := len(locals)
	ghostSet := make(map[int32]struct{})
	for _, u := range locals[:owned] {
		for _, w := range g.Neighbors(u) {
			if p.Shard(w) != s {
				ghostSet[w] = struct{}{}
			}
		}
	}
	ghosts := make([]int32, 0, len(ghostSet))
	for w := range ghostSet {
		ghosts = append(ghosts, w)
	}
	sort.Slice(ghosts, func(i, j int) bool { return ghosts[i] < ghosts[j] })
	locals = append(locals, ghosts...)

	index := make(map[int32]int32, len(locals))
	for l, gv := range locals {
		index[gv] = int32(l)
	}

	b := graph.NewBuilder(len(locals))
	// Owned-owned and owned-ghost edges: only the owned side iterates,
	// so each appears exactly once (owned-owned when u < w).
	for l := 0; l < owned; l++ {
		u := locals[l]
		for _, w := range g.Neighbors(u) {
			if p.Shard(w) == s {
				if w > u {
					b.AddEdge(int32(l), index[w])
				}
			} else {
				b.AddEdge(int32(l), index[w])
			}
		}
	}
	// Ghost-ghost edges complete the induced halo: a boundary
	// community's internal edge set is then fully present, so the
	// per-shard OCA scores it exactly as the unsharded run would.
	for _, z := range ghosts {
		for _, w := range g.Neighbors(z) {
			if w > z && p.Shard(w) != s {
				if lw, ok := index[w]; ok {
					b.AddEdge(index[z], lw)
				}
			}
		}
	}
	return Piece{Shard: s, Graph: b.Build(), Locals: locals, Owned: owned}
}
