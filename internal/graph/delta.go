package graph

import (
	"fmt"
	"sort"
)

// Delta accumulates edge additions and removals against an existing
// immutable CSR graph and applies them in one pass, producing a new
// Graph that shares nothing with (and never mutates) the original.
// It is the cheap copy-on-write path behind live cover refresh: a
// rebuild costs O(n + m + Δ log Δ) instead of re-sorting all m edges
// through a full Builder.
//
// Operations are recorded in arrival order; when the same edge is both
// added and removed, the last operation wins. Adding an edge that
// already exists and removing one that does not are no-ops at Apply
// time. The node set is fixed unless GrowTo raises it: endpoints
// outside the current bound are rejected, as are self loops. A Delta is
// not safe for concurrent use.
type Delta struct {
	g    *Graph
	ops  []deltaOp
	grow int // node count of Apply's result when > g.N()
}

type deltaOp struct {
	u, v int32 // normalized u < v
	del  bool
}

// NewDelta returns an empty Delta over g.
func NewDelta(g *Graph) *Delta {
	return &Delta{g: g}
}

// Len returns the number of recorded operations (before no-op
// elimination at Apply time).
func (d *Delta) Len() int { return len(d.ops) }

// N returns the node count Apply's result will have: the base graph's,
// or the GrowTo target when larger.
func (d *Delta) N() int {
	if d.grow > d.g.N() {
		return d.grow
	}
	return d.g.N()
}

// GrowTo raises the delta's node bound to n, so subsequent operations
// may name nodes in [0, n) and Apply's result has n nodes (new nodes
// are isolated until edges name them). Shrinking is not supported:
// targets at or below the current bound are no-ops. This is the
// mutation path behind serving graphs whose node set keeps growing —
// the base CSR graph stays untouched.
func (d *Delta) GrowTo(n int) {
	if n > d.N() {
		d.grow = n
	}
}

func (d *Delta) record(u, v int32, del bool) error {
	if u == v {
		return fmt.Errorf("graph: delta edge (%d, %d) is a self loop", u, v)
	}
	if u < 0 || v < 0 || int(u) >= d.N() || int(v) >= d.N() {
		return fmt.Errorf("graph: delta edge (%d, %d) out of range [0, %d)", u, v, d.N())
	}
	if u > v {
		u, v = v, u
	}
	d.ops = append(d.ops, deltaOp{u: u, v: v, del: del})
	return nil
}

// AddEdge records the addition of the undirected edge {u, v}. Unlike
// Builder.AddEdge it returns an error instead of panicking: deltas are
// fed from network input, where a bad endpoint is a client mistake, not
// a programming bug.
func (d *Delta) AddEdge(u, v int32) error { return d.record(u, v, false) }

// RemoveEdge records the removal of the undirected edge {u, v}.
func (d *Delta) RemoveEdge(u, v int32) error { return d.record(u, v, true) }

// Touched returns the sorted distinct endpoints of all recorded
// operations — the nodes whose neighborhoods may differ between the
// base graph and Apply's result. Refresh uses it to decide which
// communities of the previous cover can be carried over unchanged.
func (d *Delta) Touched() []int32 {
	seen := make(map[int32]struct{}, 2*len(d.ops))
	for _, o := range d.ops {
		seen[o.u] = struct{}{}
		seen[o.v] = struct{}{}
	}
	out := make([]int32, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// resolved returns the recorded operations reduced to one per edge,
// ascending by edge: a stable sort keeps arrival order within a pair,
// then the last entry wins.
func (d *Delta) resolved() []deltaOp {
	ops := make([]deltaOp, len(d.ops))
	copy(ops, d.ops)
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].u != ops[j].u {
			return ops[i].u < ops[j].u
		}
		return ops[i].v < ops[j].v
	})
	out := ops[:0]
	for i, o := range ops {
		if i+1 < len(ops) && ops[i+1].u == o.u && ops[i+1].v == o.v {
			continue // superseded by a later op on the same edge
		}
		out = append(out, o)
	}
	return out
}

// Net returns the recorded operations as Apply resolves them — one per
// distinct edge, the last operation on it winning — split into additions
// and removals, each edge as (smaller, larger) endpoint, ascending.
// Replaying Net onto the base graph, in any order, gives Apply's result;
// so does recording several Deltas' Nets, in their order, onto one.
func (d *Delta) Net() (add, remove [][2]int32) {
	for _, o := range d.resolved() {
		if o.del {
			remove = append(remove, [2]int32{o.u, o.v})
		} else {
			add = append(add, [2]int32{o.u, o.v})
		}
	}
	return add, remove
}

// Apply merges the recorded operations into the base graph's CSR arrays
// and returns the resulting Graph. The base graph is untouched; when no
// operation changes anything, the base graph itself is returned. The
// Delta may keep accumulating operations afterwards, but they remain
// relative to the base graph, not to Apply's result.
func (d *Delta) Apply() *Graph {
	n := d.N()
	base := d.g.N()
	if len(d.ops) == 0 {
		if n == base {
			return d.g
		}
		// Pure growth: the new nodes are isolated, so the adjacency is
		// unchanged and only the offsets table extends.
		offsets := make([]int64, n+1)
		copy(offsets, d.g.offsets)
		for v := base + 1; v <= n; v++ {
			offsets[v] = offsets[base]
		}
		return &Graph{offsets: offsets, adj: d.g.adj}
	}

	// Per-node change lists. Because ops are sorted by (u, v) and u < v,
	// each node's adds/dels come out ascending without a per-node sort:
	// entries with the node on the v side (partners < node) all precede
	// entries with it on the u side (partners > node).
	adds := make(map[int32][]int32)
	dels := make(map[int32][]int32)
	changed := false
	for _, o := range d.resolved() {
		// Edges naming grown nodes cannot pre-exist in the base graph
		// (and HasEdge would index past its offsets table).
		exists := int(o.v) < base && d.g.HasEdge(o.u, o.v)
		switch {
		case o.del && exists:
			dels[o.u] = append(dels[o.u], o.v)
			dels[o.v] = append(dels[o.v], o.u)
			changed = true
		case !o.del && !exists:
			adds[o.u] = append(adds[o.u], o.v)
			adds[o.v] = append(adds[o.v], o.u)
			changed = true
		}
	}
	if !changed && n == base {
		return d.g
	}

	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		var deg int64
		if v < base {
			deg = int64(d.g.Degree(int32(v)))
		}
		deg += int64(len(adds[int32(v)]) - len(dels[int32(v)]))
		offsets[v+1] = offsets[v] + deg
	}
	adj := make([]int32, offsets[n])
	for v := int32(0); int(v) < n; v++ {
		out := adj[offsets[v]:offsets[v]:offsets[v+1]]
		var old []int32
		if int(v) < base {
			old = d.g.Neighbors(v)
		}
		add, del := adds[v], dels[v]
		i, j := 0, 0 // cursors into old and add
		for i < len(old) || j < len(add) {
			// dels is a subset of old, consumed in step with old.
			if i < len(old) && len(del) > 0 && old[i] == del[0] {
				i++
				del = del[1:]
				continue
			}
			if j >= len(add) || (i < len(old) && old[i] < add[j]) {
				out = append(out, old[i])
				i++
			} else {
				out = append(out, add[j])
				j++
			}
		}
		if int64(len(out)) != offsets[v+1]-offsets[v] {
			panic(fmt.Sprintf("graph: delta merge for node %d produced %d neighbors, want %d", v, len(out), offsets[v+1]-offsets[v]))
		}
	}
	return &Graph{offsets: offsets, adj: adj}
}
