package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

func randomBenchGraph(b *testing.B, n, avgDeg int) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	bld := NewBuilderHint(n, int64(n*avgDeg/2))
	for i := 0; i < n*avgDeg/2; i++ {
		bld.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return bld.Build()
}

// BenchmarkBuild measures CSR construction (sort + dedup + symmetrize).
func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 10000
	edges := make([][2]int32, n*10)
	for i := range edges {
		edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromEdges(n, edges)
	}
}

// BenchmarkTriangleCount measures the forward algorithm.
func BenchmarkTriangleCount(b *testing.B) {
	g := randomBenchGraph(b, 5000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountTriangles(g)
	}
}

// BenchmarkBinaryVsTextIO compares the two serializations.
func BenchmarkBinaryWrite(b *testing.B) {
	g := randomBenchGraph(b, 5000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTextWrite(b *testing.B) {
	g := randomBenchGraph(b, 5000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryRead(b *testing.B) {
	g := randomBenchGraph(b, 5000, 20)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHasEdge measures the binary-search membership query.
func BenchmarkHasEdge(b *testing.B) {
	g := randomBenchGraph(b, 5000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(int32(i%5000), int32((i*7)%5000))
	}
}

// BenchmarkReadEdgeList measures the cold-boot text parse (scan, two
// ids per line, CSR build) on a 5000-node, ~50k-edge list.
func BenchmarkReadEdgeList(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, randomBenchGraph(b, 5000, 20)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEdgeList(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
