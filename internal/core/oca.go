package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/cover"
	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/postprocess"
	"repro/internal/search"
	"repro/internal/spectral"
	"repro/internal/xrand"
)

// Options configure a Run of OCA. The zero value gives the paper's
// defaults (c computed from the spectrum, neighbor inclusion ½, merging
// enabled, orphan assignment disabled).
type Options struct {
	// C overrides the inner-product parameter. When 0 it is computed as
	// -1/λmin (the paper's choice), λmin being the smallest Ritz value of
	// a Lanczos run on the adjacency matrix.
	C float64
	// Spectral tunes that Lanczos run when C is computed.
	Spectral spectral.Options
	// Seed drives all randomness (seed choice, initial neighborhoods).
	// The cover is a function of Seed and Workers together: seeds are
	// drawn, and coverage and patience judged, one batch of Workers at
	// a time, so runs with equal seeds produce identical covers only
	// under equal worker counts.
	Seed int64
	// NeighborProb is the probability that each neighbor of the seed
	// joins the initial set ("a random neighborhood of the seed").
	// Default 0.5.
	NeighborProb float64
	// MaxSteps caps greedy moves per seed (safety valve; the search
	// terminates on its own because every move strictly increases L).
	// Default 100000. Negative means unlimited.
	MaxSteps int
	// MaxCommunitySize, when positive, stops additions at that size.
	MaxCommunitySize int
	// MinCommunitySize drops smaller local optima from the result.
	// Default 3.
	MinCommunitySize int
	// Seeding selects the seed-choice policy. Default SeedUncovered.
	Seeding SeedStrategy
	// Halting configures when to stop trying new seeds.
	Halting Halting
	// Workers is the number of concurrent seed searches. Default
	// runtime.GOMAXPROCS(0).
	Workers int
	// DisableMerge skips the ρ-threshold merge post-processing step.
	DisableMerge bool
	// MergeThreshold is the ρ at or above which two communities merge.
	// Default postprocess.DefaultMergeThreshold.
	MergeThreshold float64
	// AssignOrphans enables the orphan-assignment step: every uncovered
	// node joins the community holding most of its neighbors.
	AssignOrphans bool
	// Orphans configures orphan assignment when enabled.
	Orphans postprocess.OrphanOptions
	// Warm seeds the run with communities assumed already found (for
	// example from a previous cover whose region of the graph did not
	// change). Their members count as covered from the start — steering
	// SeedUncovered and the coverage/patience halting away from known
	// structure — and they join the raw community list ahead of merging.
	// Members must lie in [0, n); the communities are never mutated.
	Warm []cover.Community
	// Restrict, when non-nil, scopes the run to a dirty region: seeds
	// are drawn only from these nodes, the coverage halting criterion
	// measures coverage of this set instead of the whole graph, and the
	// default MaxSeeds budget scales with the region, not with n. Under
	// SeedUncovered a scoped run seeds each uncovered region node at
	// most once, with no fallback to uniform draws, and ends when no
	// untried uncovered node is left (if coverage, patience or MaxSeeds
	// has not stopped it first) — otherwise a node still uncovered
	// after its own climb is re-drawn until patience runs out. The
	// local searches themselves still roam the full graph — restriction
	// is about where exploration starts, not where communities may grow.
	// Nodes must lie in [0, n); duplicates are ignored. An empty non-nil
	// set finds nothing beyond Warm. This is the engine behind
	// incremental refresh: a mutation batch dirties only the mutated
	// endpoints and the members of the communities they touched, so the
	// re-run costs O(|dirty region|) seeds instead of O(n).
	Restrict []int32
}

// SeedStrategy selects where new local searches start. The paper leaves
// seed selection open ("the selection of the initial set" is outside its
// scope); these are the natural policies.
type SeedStrategy int

const (
	// SeedUncovered draws uniformly from nodes not yet in any community,
	// falling back to uniform over all nodes (the default: "randomly
	// distributed initial seeds" with a bias toward unexplored regions).
	// A Restrict run draws each uncovered region node at most once and
	// has no fallback (see Options.Restrict).
	SeedUncovered SeedStrategy = iota
	// SeedUniform draws uniformly from all nodes regardless of coverage.
	SeedUniform
	// SeedHighDegree draws the highest-degree uncovered node (ties by
	// id), probing dense regions first.
	SeedHighDegree
)

// Halting is the stopping policy across seeds. The paper deliberately
// leaves this open ("outside the scope of this paper"); Run stops as
// soon as any enabled criterion fires. A Restrict run under
// SeedUncovered also stops once every uncovered region node has been
// tried as a seed, whichever criterion would have fired later.
type Halting struct {
	// MaxSeeds bounds the number of seeds tried. Default 4·n.
	MaxSeeds int
	// TargetCoverage ∈ (0, 1] stops once that fraction of nodes belongs
	// to some community. Default 1.0.
	TargetCoverage float64
	// Patience stops after this many consecutive seeds whose community
	// is not novel. Default 20.
	Patience int
	// MinNovelFraction is the fraction of a community's members that
	// must be newly covered for the community to count as novel (reset
	// the patience counter). Below it the search is considered to be
	// rediscovering known structure. Default 0.05.
	MinNovelFraction float64
}

func (o Options) withDefaults(n int) Options {
	if o.NeighborProb <= 0 {
		o.NeighborProb = 0.5
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 100000
	}
	if o.MinCommunitySize <= 0 {
		o.MinCommunitySize = 3
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MergeThreshold <= 0 {
		o.MergeThreshold = postprocess.DefaultMergeThreshold
	}
	if o.Halting.MaxSeeds <= 0 {
		// The seed budget scales with the region being explored: the
		// whole graph normally, the dirty region on a Restrict run —
		// that proportionality is what makes incremental refresh cost
		// O(|dirty|) instead of O(n).
		domain := n
		if o.Restrict != nil {
			domain = len(o.Restrict)
		}
		o.Halting.MaxSeeds = 4 * domain
		if o.Halting.MaxSeeds < 16 {
			o.Halting.MaxSeeds = 16
		}
	}
	if o.Halting.TargetCoverage <= 0 || o.Halting.TargetCoverage > 1 {
		o.Halting.TargetCoverage = 1
	}
	if o.Halting.Patience <= 0 {
		o.Halting.Patience = 20
	}
	if o.Halting.MinNovelFraction <= 0 {
		o.Halting.MinNovelFraction = 0.05
	}
	return o
}

// Result is the outcome of a Run.
type Result struct {
	// Cover holds the final communities (after post-processing).
	Cover *cover.Cover
	// C is the inner-product parameter actually used.
	C float64
	// SeedsTried counts local searches performed.
	SeedsTried int
	// Steps is the total number of greedy moves across all seeds.
	Steps int64
	// RawCommunities counts local optima accepted before merging.
	RawCommunities int
	// Fresh holds the communities this run itself discovered — Warm
	// excluded, merging not applied. The incremental refresh path reads
	// it to combine fresh discoveries with the warm cover through
	// postprocess.MergeInto instead of re-merging the whole cover.
	Fresh []cover.Community
}

// Run executes OCA on g and returns the overlapping communities.
func Run(g *graph.Graph, opt Options) (*Result, error) {
	n := g.N()
	opt = opt.withDefaults(n)
	res := &Result{Cover: cover.NewCover(nil)}
	if n == 0 {
		return res, nil
	}

	c := opt.C
	if c == 0 {
		var err error
		c, err = spectral.C(g, opt.Spectral)
		if err != nil {
			return nil, fmt.Errorf("core: computing c: %w", err)
		}
	}
	if c < 0 || c >= 1 {
		return nil, fmt.Errorf("core: c=%g out of range [0, 1)", c)
	}
	res.C = c

	for _, v := range opt.Restrict {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("core: restrict node %d outside graph range [0, %d)", v, n)
		}
	}
	driver := newSeedDriver(g, opt.Seeding, xrand.New(opt.Seed, -1), opt.Restrict)
	maxDeg := g.MaxDegree()
	states := make([]*search.State, opt.Workers)
	for i := range states {
		states[i] = search.NewState(g, maxDeg)
	}
	sOpts := searchOpts{
		neighborProb: opt.NeighborProb,
		maxSteps:     opt.MaxSteps,
		maxSize:      opt.MaxCommunitySize,
	}

	var raw []cover.Community
	for _, wc := range opt.Warm {
		for _, v := range wc {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("core: warm community member %d outside graph range [0, %d)", v, n)
			}
		}
		driver.markCovered(wc)
		raw = append(raw, wc)
	}
	drought := 0
	seedIndex := int64(0)

	type outcome struct {
		members []int32
		steps   int
	}
	for {
		if driver.coverage() >= opt.Halting.TargetCoverage {
			break
		}
		if res.SeedsTried >= opt.Halting.MaxSeeds || drought >= opt.Halting.Patience {
			break
		}
		batch := opt.Workers
		if rem := opt.Halting.MaxSeeds - res.SeedsTried; batch > rem {
			batch = rem
		}
		seeds := driver.drawSeeds(batch)
		if len(seeds) == 0 {
			break // scoped run: every uncovered domain node was tried
		}
		outcomes := make([]outcome, len(seeds))
		var wg sync.WaitGroup
		for i, seed := range seeds {
			wg.Add(1)
			go func(i int, seed int32, stream int64) {
				defer wg.Done()
				st := states[i]
				st.Reset()
				rng := xrand.New(opt.Seed, stream)
				steps, _ := localSearch(g, st, seed, c, rng, sOpts)
				outcomes[i] = outcome{members: st.Members(), steps: steps}
			}(i, seed, seedIndex+int64(i))
		}
		wg.Wait()
		seedIndex += int64(len(seeds))

		for _, oc := range outcomes {
			res.SeedsTried++
			res.Steps += int64(oc.steps)
			if len(oc.members) < opt.MinCommunitySize {
				drought++
				continue
			}
			needNovel := int(opt.Halting.MinNovelFraction * float64(len(oc.members)))
			if needNovel < 1 {
				needNovel = 1
			}
			if driver.markCovered(oc.members) >= needNovel {
				drought = 0
			} else {
				drought++
			}
			raw = append(raw, cover.Community(oc.members))
		}
	}
	res.RawCommunities = len(raw)
	// Copy the slice headers: NewCover takes ownership of raw and
	// SortBySize below reorders its backing array.
	res.Fresh = append([]cover.Community(nil), raw[len(opt.Warm):]...)

	cv := cover.NewCover(raw)
	if !opt.DisableMerge {
		cv = postprocess.Merge(cv, opt.MergeThreshold)
	}
	if opt.AssignOrphans {
		cv = postprocess.AssignOrphans(g, cv, opt.Orphans)
	}
	cv.SortBySize()
	res.Cover = cv
	return res, nil
}

// FindCommunity runs a single local search from the given seed node and
// returns the resulting community and its fitness. It is the building
// block Run parallelizes; exposed for tests, examples and interactive
// exploration of individual seeds.
func FindCommunity(g *graph.Graph, seedNode int32, c float64, rng *rand.Rand, opt Options) (cover.Community, float64) {
	return FindCommunityWith(g, search.NewState(g, g.MaxDegree()), seedNode, c, rng, opt)
}

// FindCommunityWith is FindCommunity with a caller-provided search
// state, which it resets before use. Long-running callers (the ocad
// query service) keep a pool of states and reuse their buffers across
// requests instead of allocating O(maxDegree) queues per search. The
// state must have been built over g with capacity ≥ g.MaxDegree().
func FindCommunityWith(g *graph.Graph, st *search.State, seedNode int32, c float64, rng *rand.Rand, opt Options) (cover.Community, float64) {
	opt = opt.withDefaults(g.N())
	st.Reset()
	_, fit := localSearch(g, st, seedNode, c, rng, searchOpts{
		neighborProb: opt.NeighborProb,
		maxSteps:     opt.MaxSteps,
		maxSize:      opt.MaxCommunitySize,
	})
	return cover.Community(st.Members()), fit
}

// seedDriver tracks covered nodes and samples seeds according to the
// configured SeedStrategy. A non-nil domain scopes it to a dirty
// region: seeds come only from the domain and coverage() measures the
// domain, while the covered set still spans the whole graph (warm
// communities and community spill-over cover nodes anywhere).
type seedDriver struct {
	strategy  SeedStrategy
	rng       *rand.Rand
	covered   *ds.Bitset
	uncovered []int32 // swap-removal pool (SeedUncovered), domain members only
	pos       []int32 // node -> index in uncovered, -1 once covered (or outside the domain)
	byDegree  []int32 // domain sorted by decreasing degree (SeedHighDegree)
	tried     *ds.Bitset
	cursor    int
	n         int

	domain        []int32    // deduplicated domain, nil = all nodes
	inDomain      *ds.Bitset // nil = all nodes
	domainSize    int
	coveredDomain int // covered nodes inside the domain
}

func newSeedDriver(g *graph.Graph, strategy SeedStrategy, rng *rand.Rand, restrict []int32) *seedDriver {
	n := g.N()
	d := &seedDriver{
		strategy: strategy,
		rng:      rng,
		covered:  ds.NewBitset(n),
		pos:      make([]int32, n),
		n:        n,
	}
	if restrict == nil {
		d.domainSize = n
		d.uncovered = make([]int32, n)
		for i := range d.uncovered {
			d.uncovered[i] = int32(i)
			d.pos[i] = int32(i)
		}
	} else {
		for i := range d.pos {
			d.pos[i] = -1
		}
		d.inDomain = ds.NewBitset(n)
		d.domain = make([]int32, 0, len(restrict))
		for _, v := range restrict {
			if !d.inDomain.Add(v) {
				continue // duplicate
			}
			d.pos[v] = int32(len(d.uncovered))
			d.uncovered = append(d.uncovered, v)
			d.domain = append(d.domain, v)
		}
		d.domainSize = len(d.domain)
	}
	if strategy == SeedHighDegree {
		d.tried = ds.NewBitset(n)
		if d.domain != nil {
			d.byDegree = append([]int32(nil), d.domain...)
		} else {
			d.byDegree = make([]int32, n)
			for i := range d.byDegree {
				d.byDegree[i] = int32(i)
			}
		}
		sort.SliceStable(d.byDegree, func(i, j int) bool {
			di, dj := g.Degree(d.byDegree[i]), g.Degree(d.byDegree[j])
			if di != dj {
				return di > dj
			}
			return d.byDegree[i] < d.byDegree[j]
		})
	}
	return d
}

func (d *seedDriver) coverage() float64 {
	if d.domainSize == 0 {
		return 1
	}
	if d.domain == nil {
		return float64(d.covered.Len()) / float64(d.domainSize)
	}
	return float64(d.coveredDomain) / float64(d.domainSize)
}

// uniformSeed draws one seed uniformly from the domain.
func (d *seedDriver) uniformSeed() int32 {
	if d.domain != nil {
		return d.domain[d.rng.Intn(len(d.domain))]
	}
	return int32(d.rng.Intn(d.n))
}

// drawSeeds samples k seeds according to the strategy.
func (d *seedDriver) drawSeeds(k int) []int32 {
	switch d.strategy {
	case SeedUniform:
		seeds := make([]int32, k)
		for i := range seeds {
			seeds[i] = d.uniformSeed()
		}
		return seeds
	case SeedHighDegree:
		seeds := make([]int32, 0, k)
		for len(seeds) < k && d.cursor < len(d.byDegree) {
			v := d.byDegree[d.cursor]
			d.cursor++
			if d.covered.Contains(v) || d.tried.Contains(v) {
				continue
			}
			d.tried.Add(v)
			seeds = append(seeds, v)
		}
		for len(seeds) < k { // pool exhausted: uniform fallback
			seeds = append(seeds, d.uniformSeed())
		}
		return seeds
	}
	// SeedUncovered: without replacement from the uncovered pool. A
	// full run draws without replacement within the batch only, and
	// falls back to uniform draws once the pool is empty; a scoped run
	// never returns a drawn node to the pool and has no fallback, so it
	// seeds each dirty node at most once and may return fewer than k
	// seeds — none once every uncovered domain node has been tried.
	seeds := make([]int32, 0, k)
	for len(seeds) < k && len(d.uncovered) > 0 {
		i := d.rng.Intn(len(d.uncovered))
		v := d.uncovered[i]
		d.removeUncovered(v)
		seeds = append(seeds, v)
	}
	if d.domain != nil {
		return seeds
	}
	// Restore the batch's draws: they stay seedable until covered.
	for _, v := range seeds {
		d.pos[v] = int32(len(d.uncovered))
		d.uncovered = append(d.uncovered, v)
	}
	for len(seeds) < k {
		seeds = append(seeds, d.uniformSeed())
	}
	return seeds
}

// markCovered marks the members covered and returns how many of them
// were previously uncovered.
func (d *seedDriver) markCovered(members []int32) int {
	novel := 0
	for _, v := range members {
		if d.covered.Add(v) {
			novel++
			if d.inDomain != nil && d.inDomain.Contains(v) {
				d.coveredDomain++
			}
			d.removeUncovered(v)
		}
	}
	return novel
}

func (d *seedDriver) removeUncovered(v int32) {
	i := d.pos[v]
	if i < 0 {
		return
	}
	last := int32(len(d.uncovered) - 1)
	moved := d.uncovered[last]
	d.uncovered[i] = moved
	d.pos[moved] = i
	d.uncovered = d.uncovered[:last]
	d.pos[v] = -1
}
