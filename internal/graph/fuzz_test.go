package graph

import (
	"bytes"
	"testing"
)

// fuzzLimits keeps a single fuzz input from demanding gigabytes: a few
// bytes of text can declare billions of nodes, which is exactly the
// class of input the limits exist for.
var fuzzLimits = ReadLimits{MaxNodes: 1 << 16, MaxEdges: 1 << 16}

// checkParsedGraph asserts the structural invariants every successful
// parse must deliver, then round-trips the graph through both formats.
func checkParsedGraph(t *testing.T, g *Graph) {
	t.Helper()
	n := g.N()
	if n < 0 || g.M() < 0 {
		t.Fatalf("negative dimensions: n=%d m=%d", n, g.M())
	}
	for v := int32(0); int(v) < n; v++ {
		nb := g.Neighbors(v)
		for i, w := range nb {
			if w < 0 || int(w) >= n {
				t.Fatalf("node %d: neighbor %d out of range [0, %d)", v, w, n)
			}
			if w == v {
				t.Fatalf("node %d: self loop survived parsing", v)
			}
			if i > 0 && nb[i-1] >= w {
				t.Fatalf("node %d: adjacency not strictly sorted: %v", v, nb)
			}
			if !g.HasEdge(w, v) {
				t.Fatalf("edge {%d,%d} not symmetric", v, w)
			}
		}
	}

	var text bytes.Buffer
	if err := WriteEdgeList(&text, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, err := ReadEdgeList(&text)
	if err != nil {
		t.Fatalf("re-reading written edge list: %v", err)
	}
	if !graphsEqual(g, g2) {
		t.Fatal("edge-list round trip changed the graph")
	}

	var bin bytes.Buffer
	if err := WriteBinary(&bin, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	g3, err := ReadBinary(&bin)
	if err != nil {
		t.Fatalf("re-reading written binary: %v", err)
	}
	if !graphsEqual(g, g3) {
		t.Fatal("binary round trip changed the graph")
	}
}

// readAutoSeeds is FuzzReadAuto's in-code seed corpus (the checked-in
// one lives in testdata/fuzz/FuzzReadAuto); the edge-list differential
// test replays both.
func readAutoSeeds(tb testing.TB) [][]byte {
	var bin bytes.Buffer
	if err := WriteBinary(&bin, FromEdges(3, [][2]int32{{0, 1}, {1, 2}})); err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		[]byte("# nodes 4 edges 3\n0 1\n1 2\n2 3\n"),
		[]byte("0 1\n1 2\n"),
		[]byte("# nodes 9999999999 edges 0\n"),
		[]byte("0 2147483647\n"),
		[]byte("# comment\n\n 3   4 \n4 3\n3 3\n"),
		[]byte("1 zebra\n"),
		[]byte("-1 2\n"),
		bin.Bytes(),
		[]byte("OCAG garbage"),
	}
}

// FuzzReadAuto drives the format-sniffing entry point ocad loads graphs
// through: arbitrary bytes must either fail cleanly or produce a valid
// CSR graph that round-trips through both serializations.
func FuzzReadAuto(f *testing.F) {
	for _, seed := range readAutoSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadAutoLimits(bytes.NewReader(data), fuzzLimits)
		if err != nil {
			return
		}
		checkParsedGraph(t, g)
	})
}

// FuzzReadBinary hits the binary decoder directly (no magic sniffing),
// exercising header and CSR validation on corrupted streams.
func FuzzReadBinary(f *testing.F) {
	for _, pairs := range [][][2]int32{
		nil,
		{{0, 1}},
		{{0, 1}, {1, 2}, {0, 2}},
	} {
		n := 3
		if pairs == nil {
			n = 0
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, FromEdges(n, pairs)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// Truncations and bit flips of valid files make good seeds.
		b := buf.Bytes()
		if len(b) > 8 {
			f.Add(b[:len(b)/2])
			flipped := append([]byte(nil), b...)
			flipped[len(flipped)-1] ^= 0xff
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinaryLimits(bytes.NewReader(data), fuzzLimits)
		if err != nil {
			return
		}
		checkParsedGraph(t, g)
	})
}

// FuzzDeltaApply checks Delta.Apply against a Builder over the same
// edge set. The input is a program: data[0] picks the base node count,
// data[1] the number of base edges, then one byte pair per base edge,
// then (kind, u, v) triples — add, remove, or GrowTo — that may repeat
// edges, re-add existing ones, remove absent ones and name nodes past
// the bound (which the Delta must reject). An empty delta, and one
// whose net effect changes nothing, must return the base graph itself.
func FuzzDeltaApply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 0, 1, 1, 2})
	f.Add([]byte{6, 3, 0, 1, 1, 2, 2, 3, 0, 0, 1, 2, 0, 1, 1, 0, 1})       // remove, re-add
	f.Add([]byte{4, 1, 0, 1, 0, 2, 3, 0, 2, 3, 2, 2, 3, 2, 0, 1})          // add, remove, absent remove
	f.Add([]byte{3, 1, 0, 1, 3, 4, 0, 0, 2, 6, 3, 2, 0, 0, 1, 0, 9})       // grow, edges onto grown nodes
	f.Add([]byte{8, 4, 0, 7, 1, 6, 2, 5, 3, 4, 0, 7, 0, 0, 0, 7, 2, 7, 0}) // out-of-range, duplicates
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0] % 48)
		nBase := int(data[1])
		data = data[2:]
		edges := map[[2]int32]bool{}
		norm := func(u, v int32) [2]int32 {
			if u > v {
				u, v = v, u
			}
			return [2]int32{u, v}
		}
		b := NewBuilder(n)
		for ; n > 0 && nBase > 0 && len(data) >= 2; nBase-- {
			u, v := int32(int(data[0])%n), int32(int(data[1])%n)
			data = data[2:]
			b.AddEdge(u, v)
			if u != v {
				edges[norm(u, v)] = true
			}
		}
		base := b.Build()
		baseEdges := len(edges)
		d := NewDelta(base)
		for ; len(data) >= 3; data = data[3:] {
			kind, u, v := data[0]%5, int32(data[1]%64), int32(data[2]%64)
			if kind == 4 {
				d.GrowTo(d.N() + int(u%8))
				continue
			}
			valid := u != v && int(u) < d.N() && int(v) < d.N()
			var err error
			if kind == 3 {
				err = d.RemoveEdge(u, v)
			} else {
				err = d.AddEdge(u, v)
			}
			if (err == nil) != valid {
				t.Fatalf("op %d (%d, %d) on %d nodes: err=%v, valid=%v", kind, u, v, d.N(), err, valid)
			}
			switch {
			case !valid:
			case kind == 3:
				delete(edges, norm(u, v))
			default:
				edges[norm(u, v)] = true
			}
		}
		got := d.Apply()
		validateCSR(t, got)
		want := NewBuilder(d.N())
		for e := range edges {
			want.AddEdge(e[0], e[1])
		}
		if !graphsEqual(got, want.Build()) {
			t.Fatal("Apply differs from a Builder over the same edge set")
		}
		// The net effect is nothing when no edge outside the base set
		// survives and none of the base set is gone.
		unchanged := d.N() == n && len(edges) == baseEdges
		for e := range edges {
			unchanged = unchanged && int(e[1]) < n && base.HasEdge(e[0], e[1])
		}
		if unchanged != (got == base) {
			t.Fatalf("net no-op %v, but Apply returned the base graph: %v", unchanged, got == base)
		}
	})
}
