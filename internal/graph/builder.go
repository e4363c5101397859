package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates undirected edges and produces an immutable Graph.
// Self loops and duplicate edges are silently dropped at Build time, so
// generators may add edges freely. A Builder must be created with
// NewBuilder and is not safe for concurrent use.
type Builder struct {
	n     int
	edges []uint64 // packEdge keys
}

// packEdge is the undirected edge {u, v} as one integer, smaller
// endpoint in the high half: for non-negative ids, integer order is
// lexicographic (min, max) order, so edges sort without a comparison
// callback and compare with ==.
func packEdge(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// NewBuilder returns a Builder for a graph on n nodes (ids 0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NewBuilderHint is NewBuilder with a capacity hint for the expected
// number of edges, avoiding append growth on large generations.
func NewBuilderHint(n int, edgeHint int64) *Builder {
	return &Builder{n: n, edges: make([]uint64, 0, edgeHint)}
}

// N returns the number of nodes the Builder was created with.
func (b *Builder) N() int { return b.n }

// AddEdge records the undirected edge {u, v}. Ordering of the endpoints
// is irrelevant. It panics if an endpoint is out of range — generator
// bugs should fail loudly, not corrupt a dataset.
func (b *Builder) AddEdge(u, v int32) {
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range [0, %d)", u, v, b.n))
	}
	b.edges = append(b.edges, packEdge(u, v))
}

// Build sorts, deduplicates and symmetrizes the recorded edges and
// returns the immutable CSR graph. The Builder may be reused afterwards;
// its recorded edges are preserved.
func (b *Builder) Build() *Graph {
	return buildCSR(b.n, slices.Clone(b.edges))
}

// buildCSR is Build over a slice of packEdge keys it may reorder: every
// endpoint must already lie in [0, n).
func buildCSR(n int, keys []uint64) *Graph {
	slices.Sort(keys)
	// Drop self loops and duplicates.
	kept := keys[:0]
	prev := ^uint64(0)
	for _, k := range keys {
		if int32(k>>32) == int32(k) || k == prev {
			continue
		}
		kept = append(kept, k)
		prev = k
	}

	offsets := make([]int64, n+1)
	for _, k := range kept {
		offsets[int32(k>>32)+1]++
		offsets[int32(k)+1]++
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	adj := make([]int32, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, k := range kept {
		u, v := int32(k>>32), int32(k)
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	}
	// Each list was filled in increasing order of the opposite endpoint
	// for the u side, but the v side interleaves, so sort per node.
	g := &Graph{offsets: offsets, adj: adj}
	for v := int32(0); v < int32(n); v++ {
		if nb := g.Neighbors(v); !slices.IsSorted(nb) {
			slices.Sort(nb)
		}
	}
	return g
}

// FromEdges is a convenience constructor building a Graph from an edge
// slice of (u, v) pairs.
func FromEdges(n int, pairs [][2]int32) *Graph {
	b := NewBuilderHint(n, int64(len(pairs)))
	for _, p := range pairs {
		b.AddEdge(p[0], p[1])
	}
	return b.Build()
}
