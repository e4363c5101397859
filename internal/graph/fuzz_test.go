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
