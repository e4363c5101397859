// Package synth provides synthetic large-graph generators. They stand in
// for the paper's Wikipedia link graph (16 986 429 nodes, 176 454 501
// edges), which is not redistributable at that vintage: an R-MAT or
// preferential-attachment graph with matched density exercises exactly
// the same OCA code paths (spectral c, seeded local search, merging)
// with a realistic heavy-tailed degree distribution. See DESIGN.md §3.6.
package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/lfr"
	"repro/internal/xrand"
)

// BarabasiAlbert generates a preferential-attachment graph: nodes arrive
// one at a time and connect m edges to existing nodes chosen
// proportionally to their current degree (via the repeated-endpoints
// trick). The first m+1 nodes form a seed clique.
func BarabasiAlbert(n, m int, seed int64) (*graph.Graph, error) {
	if m < 1 || n <= m {
		return nil, fmt.Errorf("synth: BarabasiAlbert needs 1 <= m < n, got n=%d m=%d", n, m)
	}
	rng := xrand.New(seed, 0)
	b := graph.NewBuilderHint(n, int64(n)*int64(m))
	// endpoints holds every edge endpoint; sampling uniformly from it is
	// degree-proportional sampling.
	endpoints := make([]int32, 0, 2*n*m)
	for i := 0; i <= m; i++ {
		for j := 0; j < i; j++ {
			b.AddEdge(int32(i), int32(j))
			endpoints = append(endpoints, int32(i), int32(j))
		}
	}
	targets := make(map[int32]struct{}, m)
	for v := m + 1; v < n; v++ {
		clear(targets)
		for len(targets) < m {
			t := endpoints[rng.Intn(len(endpoints))]
			targets[t] = struct{}{}
		}
		for t := range targets {
			b.AddEdge(int32(v), t)
			endpoints = append(endpoints, int32(v), t)
		}
	}
	return b.Build(), nil
}

// GNM generates a uniform random simple graph with exactly m distinct
// edges (Erdős–Rényi G(n, m)). m must not exceed half the possible pairs
// so rejection sampling stays fast.
func GNM(n int, m int64, seed int64) (*graph.Graph, error) {
	maxPairs := int64(n) * int64(n-1) / 2
	if n < 2 || m < 0 || m > maxPairs/2+1 {
		return nil, fmt.Errorf("synth: GNM(n=%d, m=%d) out of range (max %d)", n, m, maxPairs/2+1)
	}
	rng := xrand.New(seed, 0)
	seen := make(map[uint64]struct{}, m)
	b := graph.NewBuilderHint(n, m)
	for int64(len(seen)) < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(uint32(v))
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		b.AddEdge(u, v)
	}
	return b.Build(), nil
}

// RMATParams configure an R-MAT generation (Chakrabarti et al.; the
// Graph500 generator). The graph has 2^Scale nodes and approximately
// EdgeFactor·2^Scale distinct edges (duplicates and self loops are
// dropped, as in the reference implementation).
type RMATParams struct {
	Scale      int
	EdgeFactor int
	// A, B, C, D are the quadrant probabilities; they must be positive
	// and sum to 1. Zero values default to the Graph500 constants
	// (0.57, 0.19, 0.19, 0.05).
	A, B, C, D float64
	// NoisePerLevel perturbs the quadrant probabilities at every
	// recursion level (the standard "smoothing" that avoids exact
	// self-similarity). Default 0.1.
	NoisePerLevel float64
	Seed          int64
}

func (p RMATParams) withDefaults() RMATParams {
	if p.A == 0 && p.B == 0 && p.C == 0 && p.D == 0 {
		p.A, p.B, p.C, p.D = 0.57, 0.19, 0.19, 0.05
	}
	if p.NoisePerLevel == 0 {
		p.NoisePerLevel = 0.1
	}
	return p
}

// RMAT generates an R-MAT graph.
func RMAT(p RMATParams) (*graph.Graph, error) {
	p = p.withDefaults()
	if p.Scale < 1 || p.Scale > 30 {
		return nil, fmt.Errorf("synth: RMAT scale %d out of [1, 30]", p.Scale)
	}
	if p.EdgeFactor < 1 {
		return nil, fmt.Errorf("synth: RMAT edge factor %d < 1", p.EdgeFactor)
	}
	sum := p.A + p.B + p.C + p.D
	if p.A <= 0 || p.B <= 0 || p.C <= 0 || p.D <= 0 || sum < 0.999 || sum > 1.001 {
		return nil, fmt.Errorf("synth: RMAT probabilities (%g,%g,%g,%g) must be positive and sum to 1",
			p.A, p.B, p.C, p.D)
	}
	rng := xrand.New(p.Seed, 0)
	n := 1 << uint(p.Scale)
	m := int64(n) * int64(p.EdgeFactor)
	b := graph.NewBuilderHint(n, m)
	for e := int64(0); e < m; e++ {
		u, v := rmatEdge(rng, p)
		b.AddEdge(u, v) // self loops and duplicates dropped at Build
	}
	return b.Build(), nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// rmatEdge draws one edge by recursive quadrant descent.
func rmatEdge(rng *rand.Rand, p RMATParams) (int32, int32) {
	var u, v int32
	for level := 0; level < p.Scale; level++ {
		a, bq, c := p.A, p.B, p.C
		if p.NoisePerLevel > 0 {
			// Multiplicative noise, renormalized.
			na := a * (1 - p.NoisePerLevel + 2*p.NoisePerLevel*rng.Float64())
			nb := bq * (1 - p.NoisePerLevel + 2*p.NoisePerLevel*rng.Float64())
			nc := c * (1 - p.NoisePerLevel + 2*p.NoisePerLevel*rng.Float64())
			nd := p.D * (1 - p.NoisePerLevel + 2*p.NoisePerLevel*rng.Float64())
			s := na + nb + nc + nd
			a, bq, c = na/s, nb/s, nc/s
		}
		r := rng.Float64()
		u <<= 1
		v <<= 1
		switch {
		case r < a:
			// top-left: no bits set
		case r < a+bq:
			v |= 1
		case r < a+bq+c:
			u |= 1
		default:
			u |= 1
			v |= 1
		}
	}
	return u, v
}

// WikipediaLike builds the Table-I "Wikipedia" substitute: an LFR graph
// with 2^scale nodes matching the three properties of the paper's
// Wikipedia link graph that its experiment exercises — edge/node ratio
// ≈ 10.4 (176 454 501 / 16 986 429), a heavy-tailed degree distribution,
// and genuine (overlapping) community structure for OCA to find ("we
// ran OCA on the Wikipedia dataset, and found all relevant communities").
// A pure R-MAT graph fails the third property: with no planted clusters,
// c = -1/λmin collapses toward 0 on hub-dominated spectra and every
// local optimum is a singleton, which is not the regime the paper
// measured. Scale 24 approaches the paper's node count; the harness
// defaults to a smaller scale and reports throughput instead of hours.
func WikipediaLike(scale int, seed int64) (*graph.Graph, error) {
	if scale < 8 || scale > 24 {
		return nil, fmt.Errorf("synth: WikipediaLike scale %d out of [8, 24]", scale)
	}
	n := 1 << uint(scale)
	maxDeg := clampInt(n/16, 64, 1000)
	maxCom := clampInt(n/8, 40, 1000)
	bench, err := lfr.Generate(lfr.Params{
		N:            n,
		AvgDeg:       20.8, // paper's 2m/n
		MaxDeg:       maxDeg,
		DegExp:       2.2, // web-graph-like tail
		ComExp:       1.5,
		Mu:           0.3,
		MinCom:       20,
		MaxCom:       maxCom,
		OverlapNodes: n / 20, // 5% of articles sit in several topics
		OverlapMemb:  2,
		Seed:         seed,
	})
	if err != nil {
		return nil, fmt.Errorf("synth: WikipediaLike: %w", err)
	}
	return bench.Graph, nil
}
