package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"

	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/lfr"
	"repro/internal/xrand"
)

// lfrParams is the benchmark's one input, lfr-dense-20k: dense, large
// communities so a cold search costs several times the HTTP overhead,
// with overlapping nodes so the quality check sits in the regime where
// quality measures diverge. smoke shrinks it to 2k nodes.
func lfrParams(seed int64, smoke bool) lfr.Params {
	if smoke {
		return lfr.Params{N: 2000, AvgDeg: 30, MaxDeg: 60, Mu: 0.1,
			MinCom: 40, MaxCom: 100, OverlapNodes: 100, OverlapMemb: 2, Seed: seed}
	}
	return lfr.Params{N: 20000, AvgDeg: 48, MaxDeg: 120, Mu: 0.1,
		MinCom: 150, MaxCom: 400, OverlapNodes: 2000, OverlapMemb: 2, Seed: seed}
}

// input is everything generated from the benchmark's -seed: the graph
// with its planted truth. The daemons see only the edge-list file.
type input struct {
	seed  int64
	bench *lfr.Benchmark
}

func newInput(seed int64, smoke bool) (*input, error) {
	b, err := lfr.Generate(lfrParams(seed, smoke))
	if err != nil {
		return nil, fmt.Errorf("generating LFR input: %w", err)
	}
	return &input{seed: seed, bench: b}, nil
}

func (in *input) n() int { return in.bench.Graph.N() }

// writeEdgeList writes the graph as the edge list the daemons load.
func (in *input) writeEdgeList(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := graph.WriteEdgeList(bw, in.bench.Graph); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// opKind is one request class of the op streams.
type opKind uint8

const (
	opLookup opKind = iota
	opBatch
	opSearchHot  // one of the fixed hot seeds, no rng_seed
	opSearchCold // uniform seed, unique rng_seed: a guaranteed cache miss
	opSearchZipf // Zipf-popular seed, no rng_seed
	opMutate     // edge batch; wait decides whether the client blocks for visibility
)

// op is one generated request.
type op struct {
	kind        opKind
	id          int32   // lookup node or search seed
	ids         []int32 // batch lookup
	rngSeed     int64
	add, remove [][2]int32
	wait        bool
}

// opGen yields a client's request stream. Streams are pure functions of
// (benchmark seed, workload, client index).
type opGen interface {
	next() op
}

const (
	batchIDs     = 64
	hotSeedCount = 64
	// Stream indices under xrand.Derive; one per independent use of the
	// benchmark seed.
	streamHotSeeds  = 100
	streamZipfPerm  = 101
	streamMutations = 102
	streamSample    = 103
)

// lookupGen is the lookup workload's stream: 90 % single lookups of a
// uniform node, 10 % batch lookups of 64 uniform nodes.
type lookupGen struct {
	rng *rand.Rand
	n   int
	// batchShare is the probability of a batch op (0 on the pure
	// single-lookup stream beside the writer in mutate).
	batchShare float64
}

func (g *lookupGen) next() op {
	if g.batchShare > 0 && g.rng.Float64() < g.batchShare {
		ids := make([]int32, batchIDs)
		for i := range ids {
			ids[i] = int32(g.rng.Intn(g.n))
		}
		return op{kind: opBatch, ids: ids}
	}
	return op{kind: opLookup, id: int32(g.rng.Intn(g.n))}
}

// hotSeeds are the search workload's 64 fixed seeds.
func hotSeeds(seed int64, n int) []int32 {
	rng := xrand.New(seed, streamHotSeeds)
	out := make([]int32, hotSeedCount)
	for i, v := range rng.Perm(n)[:hotSeedCount] {
		out[i] = int32(v)
	}
	return out
}

// searchGen is the search workload's stream: half hot (fits the cache),
// half cold with an rng_seed no other request ever carries.
type searchGen struct {
	rng    *rand.Rand
	n      int
	hot    []int32
	client int64
	serial int64
}

func (g *searchGen) next() op {
	if g.rng.Intn(2) == 0 {
		return op{kind: opSearchHot, id: g.hot[g.rng.Intn(len(g.hot))]}
	}
	g.serial++
	return op{kind: opSearchCold, id: int32(g.rng.Intn(g.n)), rngSeed: (g.client+1)<<40 | g.serial}
}

// mixedGen is the mixed-single read stream: 70 % single lookups, 30 %
// searches whose seed popularity is Zipf(1.1) over a seeded permutation
// of the nodes.
type mixedGen struct {
	rng  *rand.Rand
	n    int
	zipf *rand.Zipf
	perm []int
}

func newMixedGen(seed int64, client, n int) *mixedGen {
	rng := xrand.New(seed, int64(client))
	return &mixedGen{
		rng:  rng,
		n:    n,
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(n-1)),
		perm: xrand.New(seed, streamZipfPerm).Perm(n),
	}
}

func (g *mixedGen) next() op {
	if g.rng.Float64() < 0.7 {
		return op{kind: opLookup, id: int32(g.rng.Intn(g.n))}
	}
	return op{kind: opSearchZipf, id: int32(g.perm[g.zipf.Uint64()])}
}

// mutationWindow is how many batches an added edge lives before the
// stream removes it again.
const mutationWindow = 16

// mutationStream is the stationary edge-mutation stream: batch i adds
// perBatch intra-community non-edges of one planted community and
// removes the edges batch i-16 added, so the graph never drifts more
// than 16 batches of adds away from the input and only ever loses edges
// the stream itself added.
type mutationStream struct {
	rng      *rand.Rand
	g        *graph.Graph
	comms    []cover.Community
	perBatch int
	live     map[[2]int32]struct{}
	window   [][][2]int32 // the last mutationWindow batches' adds, oldest first
}

func newMutationStream(in *input, perBatch int) *mutationStream {
	return &mutationStream{
		rng:      xrand.New(in.seed, streamMutations),
		g:        in.bench.Graph,
		comms:    in.bench.Communities.Communities,
		perBatch: perBatch,
		live:     make(map[[2]int32]struct{}),
	}
}

// nextBatch returns the next batch's adds and removes.
func (m *mutationStream) nextBatch() (add, remove [][2]int32) {
	if len(m.window) == mutationWindow {
		remove = m.window[0]
		m.window = m.window[1:]
		for _, e := range remove {
			delete(m.live, e)
		}
	}
	c := m.comms[m.rng.Intn(len(m.comms))]
	add = make([][2]int32, 0, m.perBatch)
	for len(add) < m.perBatch {
		u, v := c[m.rng.Intn(len(c))], c[m.rng.Intn(len(c))]
		if u == v || m.g.HasEdge(u, v) {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := [2]int32{u, v}
		if _, dup := m.live[e]; dup {
			continue
		}
		m.live[e] = struct{}{}
		add = append(add, e)
	}
	m.window = append(m.window, add)
	return add, remove
}

// liveAdds is how many stream-added edges the graph currently holds
// beyond the input.
func (m *mutationStream) liveAdds() int { return len(m.live) }

// mutateGen adapts the mutation stream to an op stream.
type mutateGen struct {
	m    *mutationStream
	wait bool
}

func (g *mutateGen) next() op {
	add, remove := g.m.nextBatch()
	return op{kind: opMutate, add: add, remove: remove, wait: g.wait}
}

// clientGen builds client idx's stream for a workload. The mutation
// stream is shared state owned by the single writing client.
func clientGen(w string, in *input, idx int, muts *mutationStream) opGen {
	n := in.n()
	rng := xrand.New(in.seed, int64(idx))
	switch w {
	case "lookup":
		return &lookupGen{rng: rng, n: n, batchShare: 0.1}
	case "search":
		return &searchGen{rng: rng, n: n, hot: hotSeeds(in.seed, n), client: int64(idx)}
	case "mutate":
		if idx == 0 {
			return &mutateGen{m: muts, wait: true}
		}
		return &lookupGen{rng: rng, n: n}
	case "mixed-single":
		if idx >= numClients {
			return &mutateGen{m: muts} // the paced no-wait writer
		}
		return newMixedGen(in.seed, idx, n)
	}
	panic("unknown workload " + w)
}

// streamHash fingerprints the first count ops of a stream.
func streamHash(g opGen, count int) uint64 {
	h := fnv.New64a()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	for i := 0; i < count; i++ {
		o := g.next()
		put(int64(o.kind), int64(o.id), o.rngSeed)
		for _, id := range o.ids {
			put(int64(id))
		}
		for _, e := range o.add {
			put(int64(e[0]), int64(e[1]))
		}
		for _, e := range o.remove {
			put(-int64(e[0])-1, -int64(e[1])-1)
		}
	}
	return h.Sum64()
}
