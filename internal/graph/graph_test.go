package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// path returns the path graph 0-1-2-...-(n-1).
func path(n int) *Graph {
	b := NewBuilder(n)
	for i := int32(0); i < int32(n-1); i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// complete returns K_n.
func complete(n int) *Graph {
	b := NewBuilder(n)
	for i := int32(0); i < int32(n); i++ {
		for j := i + 1; j < int32(n); j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop
	b.AddEdge(2, 3)
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M=%d, want 2 (dedup + loop removal)", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(2, 3) {
		t.Fatal("expected edges missing")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 2) {
		t.Fatal("unexpected edges present")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 1 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(2))
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range endpoint")
		}
	}()
	NewBuilder(3).AddEdge(0, 3)
}

func TestGraphBasics(t *testing.T) {
	g := complete(5)
	if g.N() != 5 || g.M() != 10 {
		t.Fatalf("K5: n=%d m=%d", g.N(), g.M())
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("K5 max degree %d", g.MaxDegree())
	}
	count := 0
	g.Edges(func(u, v int32) bool {
		if u >= v {
			t.Fatalf("Edges emitted u=%d >= v=%d", u, v)
		}
		count++
		return true
	})
	if count != 10 {
		t.Fatalf("Edges visited %d, want 10", count)
	}
	// Early stop.
	count = 0
	g.Edges(func(u, v int32) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d, want 1", count)
	}
}

func TestEdgesWithinAndDegreeSum(t *testing.T) {
	g := complete(6)
	set := []int32{0, 2, 4}
	mem := map[int32]bool{0: true, 2: true, 4: true}
	in := g.EdgesWithin(set, func(v int32) bool { return mem[v] })
	if in != 3 { // triangle among {0,2,4}
		t.Fatalf("EdgesWithin=%d, want 3", in)
	}
	if s := g.DegreeSum(set); s != 15 {
		t.Fatalf("DegreeSum=%d, want 15", s)
	}
}

// TestCSRInvariants checks, on random graphs, that adjacency lists are
// sorted, deduplicated, loop-free and symmetric, and that M matches.
func TestCSRInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		b := NewBuilder(n)
		em := 5 * n
		for i := 0; i < em; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		var halfEdges int64
		for v := int32(0); v < int32(n); v++ {
			nb := g.Neighbors(v)
			halfEdges += int64(len(nb))
			for i, w := range nb {
				if w == v {
					return false // self loop survived
				}
				if i > 0 && nb[i-1] >= w {
					return false // unsorted or duplicate
				}
				if !g.HasEdge(w, v) {
					return false // asymmetric
				}
			}
		}
		return halfEdges == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	// 5 and 6 isolated
	g := b.Build()
	labels, count := Components(g)
	if count != 4 {
		t.Fatalf("components=%d, want 4", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("0,1,2 should share a component")
	}
	if labels[3] != labels[4] {
		t.Fatal("3,4 should share a component")
	}
	if labels[5] == labels[6] {
		t.Fatal("5 and 6 should be separate components")
	}
}

func TestStats(t *testing.T) {
	g := complete(4) // 4 triangles
	st := ComputeStats(g, true)
	if st.Nodes != 4 || st.Edges != 6 || st.MinDegree != 3 || st.MaxDegree != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.Triangles != 4 {
		t.Fatalf("K4 triangles=%d, want 4", st.Triangles)
	}
	if st.Components != 1 || st.Isolated != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.String() == "" {
		t.Fatal("String should be non-empty")
	}
}

// TestTriangleCountMatchesBrute cross-checks the forward algorithm
// against O(n^3) enumeration on random graphs.
func TestTriangleCountMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		b := NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		var brute int64
		for a := int32(0); a < int32(n); a++ {
			for c := a + 1; c < int32(n); c++ {
				for d := c + 1; d < int32(n); d++ {
					if g.HasEdge(a, c) && g.HasEdge(c, d) && g.HasEdge(a, d) {
						brute++
					}
				}
			}
		}
		return CountTriangles(g) == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestForEachTriangleUnique ensures each triangle is reported exactly once.
func TestForEachTriangleUnique(t *testing.T) {
	g := complete(6)
	seen := map[[3]int32]bool{}
	ForEachTriangle(g, func(a, b, c int32) {
		key := [3]int32{a, b, c}
		sort.Slice(key[:], func(i, j int) bool { return key[i] < key[j] })
		if seen[key] {
			t.Fatalf("triangle %v reported twice", key)
		}
		seen[key] = true
	})
	if len(seen) != 20 { // C(6,3)
		t.Fatalf("K6 triangles=%d, want 20", len(seen))
	}
}

func TestNewFromCSR(t *testing.T) {
	// Manual CSR for the path 0-1-2.
	g := NewFromCSR([]int64{0, 1, 3, 4}, []int32{1, 0, 2, 1})
	if g.N() != 3 || g.M() != 2 || !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatalf("CSR graph wrong: n=%d m=%d", g.N(), g.M())
	}
}
