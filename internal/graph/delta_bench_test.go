package graph_test

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/lfr"
)

// BenchmarkDeltaApply is the per-publish graph copy: Delta.Apply of one
// 16-edge batch added inside a planted community of lfr-dense-20k (the
// end-to-end benchmark's input and batch shape). The input and the
// delta are built outside the timer.
func BenchmarkDeltaApply(b *testing.B) {
	bench, err := lfr.Generate(lfr.Params{N: 20000, AvgDeg: 48, MaxDeg: 120, Mu: 0.1,
		MinCom: 150, MaxCom: 400, OverlapNodes: 2000, OverlapMemb: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := bench.Graph
	rng := rand.New(rand.NewSource(1))
	c := bench.Communities.Communities[0]
	d := graph.NewDelta(g)
	for d.Len() < 16 {
		u, v := c[rng.Intn(len(c))], c[rng.Intn(len(c))]
		if u != v && !g.HasEdge(u, v) {
			if err := d.AddEdge(u, v); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.Apply() == g {
			b.Fatal("a 16-edge batch of new edges left the graph unchanged")
		}
	}
}
