package core

import (
	"math/rand"
	"testing"

	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/lfr"
)

// TestRestrictScopesSeeding: a run restricted to one clique of a
// two-clique graph must explore only that region — the other clique is
// never seeded, so no community forms there.
func TestRestrictScopesSeeding(t *testing.T) {
	g := twoCliquesBridge(8) // cliques 0..7 and 8..15
	res, err := Run(g, Options{Seed: 9, Restrict: []int32{8, 9, 10, 11, 12, 13, 14, 15}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cover.Len() == 0 {
		t.Fatal("restricted run found nothing in its own region")
	}
	for _, c := range res.Cover.Communities {
		inB := 0
		for _, v := range c {
			if v >= 8 {
				inB++
			}
		}
		// Every community must be essentially clique B; at most the
		// bridge endpoint leaks in.
		if inB < len(c)-1 {
			t.Fatalf("restricted run produced a community outside its region: %v", c)
		}
	}
	// The seed budget scales with the region, not the graph: the default
	// is 4·|restrict| (min 16), far below 4·n.
	if res.SeedsTried > 4*8+8 {
		t.Fatalf("tried %d seeds for an 8-node region", res.SeedsTried)
	}
}

// TestRestrictWithWarmHaltsOnCoveredRegion: when warm communities
// already cover the whole restricted region, the run should stop almost
// immediately (coverage halting measures the region, not the graph) and
// return the warm cover.
func TestRestrictWithWarmHaltsOnCoveredRegion(t *testing.T) {
	g := twoCliquesBridge(8)
	warm := []cover.Community{cover.NewCommunity([]int32{0, 1, 2, 3, 4, 5, 6, 7})}
	res, err := Run(g, Options{
		Seed:     4,
		Warm:     warm,
		Restrict: []int32{0, 1, 2, 3},
		// Disable merging so the output is exactly warm + fresh.
		DisableMerge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SeedsTried != 0 {
		t.Fatalf("tried %d seeds over a fully warm-covered region, want 0", res.SeedsTried)
	}
	if len(res.Fresh) != 0 {
		t.Fatalf("fresh = %v, want none", res.Fresh)
	}
	if res.Cover.Len() != 1 || !res.Cover.Communities[0].Equal(warm[0]) {
		t.Fatalf("cover = %v, want the warm community only", res.Cover.Communities)
	}
}

// TestRestrictValidation: region members outside the graph are
// rejected, and duplicates are tolerated.
func TestRestrictValidation(t *testing.T) {
	g := twoCliquesBridge(4)
	if _, err := Run(g, Options{Seed: 1, Restrict: []int32{0, int32(g.N())}}); err == nil {
		t.Fatal("expected error for out-of-range restrict node")
	}
	if _, err := Run(g, Options{Seed: 1, Restrict: []int32{0, 0, 1, 1, 2}}); err != nil {
		t.Fatalf("duplicate restrict nodes: %v", err)
	}
}

// TestFreshExcludesWarm: Result.Fresh must hold exactly the communities
// the run itself discovered, unaffected by the result cover's sorting.
func TestFreshExcludesWarm(t *testing.T) {
	g := twoCliquesBridge(8)
	warm := []cover.Community{cover.NewCommunity([]int32{0, 1, 2, 3, 4, 5, 6, 7})}
	res, err := Run(g, Options{Seed: 6, Warm: warm, DisableMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fresh) == 0 {
		t.Fatal("run discovered nothing fresh")
	}
	for _, c := range res.Fresh {
		if c.Equal(warm[0]) {
			continue // a re-discovery of the warm region is legitimate
		}
		hasB := false
		for _, v := range c {
			if v >= 8 {
				hasB = true
				break
			}
		}
		if !hasB {
			t.Fatalf("fresh community %v matches neither clique", c)
		}
	}
}

// restrictFixture is a 400-node LFR graph and a 60-node region of it,
// listed with duplicates.
func restrictFixture(t *testing.T) (*graph.Graph, []int32) {
	t.Helper()
	bench, err := lfr.Generate(lfr.Params{
		N: 400, AvgDeg: 12, MaxDeg: 30, Mu: 0.2,
		MinCom: 15, MaxCom: 50, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var region []int32
	for len(region) < 80 {
		region = append(region, int32(rng.Intn(60))*5)
	}
	return bench.Graph, region
}

func distinct(vs []int32) map[int32]bool {
	set := make(map[int32]bool, len(vs))
	for _, v := range vs {
		set[v] = true
	}
	return set
}

// TestRestrictSeedsEachNodeOnce: a scoped SeedUncovered run draws each
// uncovered region node at most once and stops when none is left
// untried. With every community dropped (MinCommunitySize past n) and
// patience and MaxSeeds out of reach, nothing is ever covered, so the
// run must try exactly the region's distinct nodes — once each — under
// any worker count.
func TestRestrictSeedsEachNodeOnce(t *testing.T) {
	g, region := restrictFixture(t)
	want := len(distinct(region))
	for _, workers := range []int{0, 1, 3, 8} {
		res, err := Run(g, Options{
			Seed: 11, C: 0.2, Workers: workers, Restrict: region,
			MinCommunitySize: g.N() + 1,
			Halting:          Halting{MaxSeeds: 1000, Patience: 1000},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.SeedsTried != want {
			t.Fatalf("workers=%d: tried %d seeds over %d distinct region nodes, want each once", workers, res.SeedsTried, want)
		}
	}
}

// TestRestrictSeedsOnlyUncoveredOnce: with warm communities covering
// part of the region and default halting, a scoped run tries at most
// the region's distinct nodes the warm cover leaves uncovered.
func TestRestrictSeedsOnlyUncoveredOnce(t *testing.T) {
	g, region := restrictFixture(t)
	full, err := Run(g, Options{Seed: 2, C: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	warm := full.Cover.Communities[:len(full.Cover.Communities)/2]
	covered := map[int32]bool{}
	for _, c := range warm {
		for _, v := range c {
			covered[v] = true
		}
	}
	uncovered := 0
	for v := range distinct(region) {
		if !covered[v] {
			uncovered++
		}
	}
	res, err := Run(g, Options{Seed: 7, C: 0.2, Warm: warm, Restrict: region})
	if err != nil {
		t.Fatal(err)
	}
	if res.SeedsTried > uncovered {
		t.Fatalf("tried %d seeds, but only %d region nodes start uncovered", res.SeedsTried, uncovered)
	}
}

// TestScopedDriverNeverRedraws: the scoped driver hands out each
// domain node at most once across batches, then nothing; the full
// driver keeps drawing full batches.
func TestScopedDriverNeverRedraws(t *testing.T) {
	g, region := restrictFixture(t)
	d := newSeedDriver(g, SeedUncovered, rand.New(rand.NewSource(1)), region)
	seen := map[int32]bool{}
	for batch := 0; ; batch++ {
		seeds := d.drawSeeds(7)
		if len(seeds) == 0 {
			break
		}
		for _, v := range seeds {
			if seen[v] {
				t.Fatalf("batch %d: node %d drawn twice", batch, v)
			}
			seen[v] = true
		}
	}
	if len(seen) != len(distinct(region)) {
		t.Fatalf("drew %d distinct nodes of a %d-node region", len(seen), len(distinct(region)))
	}
	full := newSeedDriver(g, SeedUncovered, rand.New(rand.NewSource(1)), nil)
	for i := 0; i < 2*g.N()/7; i++ {
		if got := len(full.drawSeeds(7)); got != 7 {
			t.Fatalf("full driver batch %d drew %d seeds, want 7", i, got)
		}
	}
}
