package persist

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lfr"
	"repro/internal/refresh"
	"repro/internal/shard"
	"repro/internal/wal"
)

// foldGraph is the LFR graph the recovery tests mutate: 300 nodes in a
// dozen planted communities, small enough that a history of rebuilds
// takes milliseconds.
func foldGraph(t testing.TB) *graph.Graph {
	t.Helper()
	bench, err := lfr.Generate(lfr.Params{
		N: 300, AvgDeg: 10, MaxDeg: 25, Mu: 0.05,
		MinCom: 20, MaxCom: 40, Seed: 7,
	})
	if err != nil {
		t.Fatalf("lfr.Generate: %v", err)
	}
	return bench.Graph
}

// run is one seeded random history and the facts about it the checks
// need beyond what the harness records.
type run struct {
	*history
	rng        *rand.Rand
	pairs      [][2]int32      // edges between two grown, uncovered nodes: removing one is a fastpath publish
	forced     map[uint64]bool // generations a ForceRebuild published
	drift      bool            // K=1: the worker's op count is ahead of the published Seq (a no-op batch)
	nextGlobal int32           // shard: next unused global node id
	mapChanged bool
	saw        map[string]int // what the history exercised, for the coverage check
}

// TestFoldEqualsLive is the recovery property: whatever history a
// deployment lived through, a restart serves what it served. Random
// seeded histories over both roles — adds, removes, node growth (new
// and re-shipped table entries on the shard), all-no-op batches,
// fastpath, incremental and full publishes (by threshold, by c
// re-derivation, forced, and on the shard by a partition-map change), a
// failed rebuild's carry-over, batches that reach the WAL while the
// previous rebuild is still publishing — are killed and recovered at
// every publish marker, at clean and torn cuts around one publish, with
// one patch deleted and with one patch naming a community that does not
// exist. Every published generation the log still describes must come
// back reflect.DeepEqual to the live one (cover ids, info, graph, index,
// stats, table, ownership meta) without a worker being started;
// everything past the described prefix must come back through the
// engine at the generation, op count and graph the engine's rules give.
// The live path is held to the same applier on the way: every publish's
// patch, applied to the previous cover, is the published cover.
func TestFoldEqualsLive(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	saw := map[string]int{}
	for _, sharded := range []bool{false, true} {
		for seed := 0; seed < seeds; seed++ {
			name := fmt.Sprintf("k1/seed%d", seed)
			if sharded {
				name = fmt.Sprintf("shard/seed%d", seed)
			}
			t.Run(name, func(t *testing.T) {
				r := newRun(t, sharded, int64(seed))
				r.play(16)
				r.kill()
				r.cutLegs()
				r.restartLegs()
				for k, n := range r.saw {
					saw[k] += n
				}
			})
		}
	}
	if t.Failed() || testing.Short() {
		return
	}
	// The generator must actually reach what the test claims to cover.
	for _, want := range []string{
		refresh.ModeFastpath, refresh.ModeIncremental, refresh.ModeFull,
		"carried", "forced", "rederived", "gated", "noop", "grown", "reshipped", "map change", "ghost-filtered",
		"cut: folded", "cut: derived", "cut: torn",
	} {
		if saw[want] == 0 {
			t.Errorf("no history exercised %q (saw %v)", want, saw)
		}
	}
}

func newRun(t *testing.T, sharded bool, seed int64) *run {
	g := foldGraph(t)
	r := &run{rng: rand.New(rand.NewSource(seed)), forced: map[uint64]bool{}, saw: map[string]int{}, nextGlobal: int32(g.N())}
	// c unpinned and a low drift threshold: a few dozen operations in,
	// a rebuild re-derives c, and only the log can say which one did.
	oca := core.Options{Seed: 7 + seed}
	opts := Options{SegmentEvery: 1 << 32, FsyncEveryBatch: false}
	const maxNodes = 400
	if sharded {
		piece, err := shard.SplitOne(g, histK, histShard)
		if err != nil {
			t.Fatal(err)
		}
		r.history = startShard(t, piece, shard.Config{
			OCA: oca, Debounce: -1, IncrementalThreshold: 0.5, RederiveCAfter: 0.03,
		}, maxNodes, opts)
	} else {
		r.history = startSingle(t, g, refresh.Config{
			OCA: oca, Debounce: -1, IncrementalThreshold: 0.5, RederiveCAfter: 0.03,
		}, maxNodes, opts)
	}
	return r
}

// flushed publishes what is queued and notes what that exercised.
func (r *run) flushed() *refresh.Snapshot {
	before := r.live()
	snap := r.flush()
	if snap.Gen != before.Gen {
		r.drift = false
		if snap.C != before.C {
			r.saw["rederived"]++
		}
	}
	return snap
}

func (r *run) nonEdge() [2]int32 {
	g, n := r.live().Graph, r.nodes()
	for {
		u, v := int32(r.rng.Intn(n)), int32(r.rng.Intn(n))
		if u != v && (int(u) >= g.N() || int(v) >= g.N() || !g.HasEdge(u, v)) {
			return [2]int32{u, v}
		}
	}
}

func (r *run) edge() [2]int32 {
	g := r.live().Graph
	for {
		u := int32(r.rng.Intn(g.N()))
		if ns := g.Neighbors(u); len(ns) > 0 {
			return [2]int32{u, ns[r.rng.Intn(len(ns))]}
		}
	}
}

func (r *run) edges(n int, pick func() [2]int32) [][2]int32 {
	out := make([][2]int32, n)
	for i := range out {
		out[i] = pick()
	}
	return out
}

// grow returns n node ids the next batch may name as new, with — on the
// shard — the table growth that batch must ship for them (sometimes
// behind a few re-shipped entries the shard already has).
func (r *run) grow(n int) (ids, newGlobals []int32, reship int) {
	for i := 0; i < n; i++ {
		ids = append(ids, int32(r.nodes()+i))
		if r.sharded {
			newGlobals = append(newGlobals, r.nextGlobal)
			r.nextGlobal++
		}
	}
	r.saw["grown"]++
	if r.sharded && r.rng.Intn(2) == 0 {
		reship = 1 + r.rng.Intn(3)
		r.saw["reshipped"]++
	}
	return ids, newGlobals, reship
}

// play drives the deployment through steps random operations and leaves
// it quiescent: everything accepted is published and logged.
func (r *run) play(steps int) {
	for i := 0; i < steps; i++ {
		switch op := r.rng.Intn(15); {
		case op < 3: // a few effective adds
			r.must(r.edges(1+r.rng.Intn(3), r.nonEdge), nil, nil, 0)
		case op < 5:
			r.must(nil, r.edges(1+r.rng.Intn(3), r.edge), nil, 0)
		case op == 5: // touches most communities: a full rebuild, and c drift
			r.must(r.edges(12, r.nonEdge), r.edges(12, r.edge), nil, 0)
		case op == 6: // changes nothing: accepted, logged, never published
			r.flushed()
			r.must([][2]int32{r.edge()}, nil, nil, 0)
			r.flushed()
			r.drift = true
			r.saw["noop"]++
			continue
		case op == 7: // two new nodes joined to each other: covered by nothing
			ids, globals, reship := r.grow(2)
			r.must([][2]int32{{ids[0], ids[1]}}, nil, globals, reship)
			r.pairs = append(r.pairs, [2]int32{ids[0], ids[1]})
		case op == 8 && len(r.pairs) > 0: // ...so cutting them apart again needs no OCA
			r.flushed()
			r.must(nil, r.pairs[:1], nil, 0)
			r.pairs = r.pairs[1:]
			r.flushed()
			continue
		case op == 9: // a new node wired into existing structure
			ids, globals, reship := r.grow(1)
			u := r.edge()
			r.must([][2]int32{{u[0], ids[0]}, {u[1], ids[0]}}, nil, globals, reship)
		case op == 10:
			r.gated()
			continue
		case op == 11 && !r.sharded:
			r.force()
			continue
		case op == 12 && !r.sharded && !r.drift:
			r.failOnce()
			continue
		case op == 12 && r.sharded && !r.drift:
			r.failOnceShard()
			continue
		case op == 13 && r.sharded && !r.mapChanged:
			r.changeMap()
			continue
		case op == 14: // a new clique; on the shard, of ghosts only: found, then filtered
			ids, globals, reship := r.grow(4)
			if r.sharded { // shard 1 of 2 owns the odd global ids
				even := r.nextGlobal + r.nextGlobal%2
				for i := range globals {
					globals[i] = even + 2*int32(i)
				}
				r.nextGlobal = even + 2*int32(len(globals))
			}
			var clique [][2]int32
			for i, u := range ids {
				for _, v := range ids[i+1:] {
					clique = append(clique, [2]int32{u, v})
				}
			}
			r.must(clique, nil, globals, reship)
		default:
			continue
		}
		if r.rng.Intn(10) < 7 { // otherwise left queued: the next batch coalesces with it
			r.flushed()
		}
	}
	if r.drift {
		// End on a publish: a trailing no-op batch is a batch past the
		// last marker, which the restart legs add on their own terms.
		r.must(r.edges(1, r.nonEdge), nil, nil, 0)
	}
	r.flushed()
	r.history.mu.Lock()
	defer r.history.mu.Unlock()
	for _, g := range r.gens {
		if g.snap.Patch == nil {
			continue
		}
		r.saw[g.snap.RebuildMode]++
		if g.snap.Patch.Carried {
			r.saw["carried"]++
		}
		// The worker ran OCA over a cover the shard layer then thinned.
		if g.snap.Result != nil && g.snap.Result.Cover != nil && g.snap.Result.Cover.Len() > g.snap.Cover.Len() {
			r.saw["ghost-filtered"]++
		}
	}
}

// gated publishes one batch and, from inside its publish hook, queues a
// second: the WAL holds batch 1, batch 2, then publish 1 — the order a
// batch arriving during a rebuild leaves.
func (r *run) gated() {
	r.flushed()
	first, second := r.edges(2, r.nonEdge), r.edges(2, r.nonEdge)
	r.gateNext(func() {
		if err := r.mutate(second, nil, nil, 0); err != nil {
			r.t.Errorf("gated writer: %v", err)
		}
	})
	r.must(first, nil, nil, 0)
	r.flushed() // the first publish, its hook, and with it the second batch's enqueue
	r.flushed() // the second publish
	r.saw["gated"]++
}

// force is a rebuild nobody's batch asked for: a marker, and a patch,
// with no edge-batch record in front of them.
func (r *run) force() {
	r.flushed()
	if _, err := r.rw.ForceRebuild(); err != nil {
		r.t.Fatal(err)
	}
	r.forced[r.flushed().Gen] = true
	r.saw["forced"]++
}

// failOnce publishes one generation under a worker whose OCA run cannot
// succeed (c = 1.5), so the new graph goes out with the previous cover
// carried over, then puts the working configuration back. Only a
// quiescent worker whose op count equals the published Seq can be
// swapped: the next one resumes counting from the snapshot.
func (r *run) failOnce() {
	r.flushed()
	r.rw.Close()
	broken := r.rcfg
	broken.OCA.C, broken.RederiveCAfter = 1.5, 0
	r.startSingleWorker(r.rw.Snapshot(), broken)
	r.must(r.edges(2, r.nonEdge), nil, nil, 0)
	carried := r.flushed()
	if carried.Result != nil {
		r.t.Fatalf("generation %d: the rebuild under c=1.5 succeeded: test premise", carried.Gen)
	}
	r.rw.Close()
	r.startSingleWorker(carried, r.rcfg)
}

// failOnceShard is failOnce on the shard: the worker is restarted from
// its published generation with c = 1.5 pinned (a restored worker pins
// its snapshot's c), publishes one carried-over generation, and is
// restarted again with the working c. Nothing is sealed: to the log the
// restarts are invisible, and only the carried publish is written.
func (r *run) failOnceShard() {
	r.flushed()
	good := r.sw.Snapshot().C
	restart := func(snap *refresh.Snapshot, c float64, cfg shard.Config) {
		table := r.sw.Table()[:snap.Graph.N()]
		pinned := *snap
		pinned.C = c
		r.sw.Close()
		r.sw = shard.NewWorkerFromSnapshot(&pinned, table, histShard, histK, cfg, r.maxNodes)
	}
	pm := r.sw.PartitionMap()
	broken := r.liveShardConfig(pm)
	broken.RederiveCAfter = 0
	restart(r.sw.Snapshot(), 1.5, broken)
	r.must(r.edges(2, r.nonEdge), nil, nil, 0)
	carried := r.flushed()
	if carried.Result != nil {
		r.t.Fatalf("generation %d: the rebuild under c=1.5 succeeded: test premise", carried.Gen)
	}
	restart(carried, good, r.liveShardConfig(pm))
}

// changeMap installs a partition map that hands this shard a range of
// shard 0's nodes, the way the transport's map-install verb does it:
// adopt, flush the forced ownership rebuild, record the map, seal.
func (r *run) changeMap() {
	r.flushed()
	pm, err := r.sw.PartitionMap().Move(40, 80, 0, histShard)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.sw.SetPartitionMap(pm); err != nil {
		r.t.Fatal(err)
	}
	snap := r.flushed()
	r.store.SetPartition(pm.Epoch, pm.Encode())
	if err := r.store.Seal(snap, r.sw.Table()[:snap.Graph.N()]); err != nil {
		r.t.Fatal(err)
	}
	r.mapChanged = true
	r.saw["map change"]++
}

// tailWAL is the WAL file holding the tail: the one based at the newest
// segment (every seal rotates onto a new one).
func (r *run) tailWAL(dir string) (path string, segGen uint64) {
	segs := listByPattern(dir, SegmentPattern, ".ocaseg")
	segGen = segs[len(segs)-1]
	return filepath.Join(dir, WALName(segGen)), segGen
}

// cutLegs recovers copies of the killed directory whose WAL was cut or
// damaged the ways a crash or a disk can, and holds each recovery to
// what the surviving log says.
func (r *run) cutLegs() {
	path, _ := r.tailWAL(r.dir)
	recs := readWAL(r.t, path)
	var patched []int // indexes of the markers that directly follow their patch
	for i, rec := range recs {
		if rec.Type != wal.RecPublish {
			continue
		}
		// After a marker: the publish is durable, whatever follows is not.
		r.recoverCut(fmt.Sprintf("cut after record %d", i), recs[:i+1], nil, 0)
		if i > 0 && recs[i-1].Type == wal.RecCoverPatch {
			patched = append(patched, i)
		}
	}
	if len(patched) == 0 {
		return
	}
	// Around one publish, patch at i-1 and marker at i.
	i := patched[r.rng.Intn(len(patched))]
	patch, marker := walFrame(recs[i-1]), walFrame(recs[i])
	gen := binary.LittleEndian.Uint64(recs[i].Payload)
	r.recoverCut("cut between a batch and its publish", recs[:i-1], nil, 0)
	r.recoverCut("torn inside the patch", recs[:i-1], patch[:len(patch)/2], 0)
	r.recoverCut("torn inside the marker", recs[:i], marker[:5], 0)
	r.recoverCut("patch deleted", slices.Delete(slices.Clone(recs), i-1, i), nil, 0)
	// A patch whose CRC is right and whose content is not: one more
	// removed id, past any cover.
	bad := slices.Clone(recs)
	bad[i-1].Payload = withRemovedID(recs[i-1].Payload, 1<<30)
	r.recoverCut("patch names community 2^30", bad, nil, gen)
}

// withRemovedID returns a cover-patch payload with id appended to its
// removed list (offsets per docs/PERSISTENCE.md: nRemoved at 30, the
// list from 38).
func withRemovedID(payload []byte, id uint32) []byte {
	n := binary.LittleEndian.Uint32(payload[30:])
	out := slices.Clone(payload)
	binary.LittleEndian.PutUint32(out[30:], n+1)
	return slices.Insert(out, 38+4*int(n), binary.LittleEndian.AppendUint32(nil, id)...)
}

// recoverCut recovers a copy of the directory whose tail WAL holds recs
// (then torn), and checks the result against the oracle below. unusable
// names a generation whose patch is present but must be refused.
func (r *run) recoverCut(what string, recs []wal.Record, torn []byte, unusable uint64) {
	r.t.Helper()
	dir := copyDir(r.t, r.dir)
	path, segGen := r.tailWAL(dir)
	rewriteWAL(r.t, path, recs, torn)
	rec := r.recoverAt(dir, nil)
	defer rec.close()
	if (torn != nil) != rec.st.Stats.TornTail {
		r.t.Errorf("%s: torn tail reported %v", what, rec.st.Stats.TornTail)
	}

	// What the surviving log says. The described prefix: markers, in
	// order, each directly preceded by a usable patch.
	var (
		batches []wal.EdgeBatch
		markers []wal.Publish
		folded  = segGen
		nFolded int
	)
	for i, rc := range recs {
		switch rc.Type {
		case wal.RecEdgeBatch:
			b, err := wal.DecodeEdgeBatch(rc.Payload)
			if err != nil {
				r.t.Fatal(err)
			}
			batches = append(batches, b)
		case wal.RecPublish:
			p, err := wal.DecodePublish(rc.Payload)
			if err != nil {
				r.t.Fatal(err)
			}
			markers = append(markers, p)
			if nFolded == len(markers)-1 && i > 0 && recs[i-1].Type == wal.RecCoverPatch && p.Gen != unusable {
				folded, nFolded = p.Gen, nFolded+1
			}
		}
	}
	r.history.mu.Lock()
	base := r.gens[folded]
	r.history.mu.Unlock()
	rest := markers[nFolded:]
	i := 0
	for i < len(batches) && batches[i].Seq <= base.snap.Seq {
		i++
	}
	batches = batches[i:]

	if len(rest) == 0 && len(batches) == 0 {
		r.checkSame(what, rec, base)
		r.checkFolded(what, rec)
		r.saw["cut: folded"]++
		return
	}
	if torn != nil {
		r.saw["cut: torn"]++
	}
	r.saw["cut: derived"]++

	// The engine's rules from there on: flush at each surviving marker,
	// once more for what no marker covers; a flush that changes the graph
	// publishes a generation carrying the op count so far; and the last
	// marker's generation is the floor (a forced rebuild is replayed by
	// nobody and only numbered).
	g, gen, seq, ops := base.snap.Graph, base.snap.Gen, base.snap.Seq, base.snap.Seq
	flush := func(upTo uint64) {
		d := graph.NewDelta(g)
		for ; len(batches) > 0 && batches[0].Seq <= upTo; batches = batches[1:] {
			b := batches[0]
			n, err := refresh.ValidateBatch(b.Add, b.Remove, d.N(), r.maxNodes)
			if err != nil {
				r.t.Fatal(err)
			}
			d.GrowTo(n)
			for _, e := range b.Add {
				_ = d.AddEdge(e[0], e[1])
			}
			for _, e := range b.Remove {
				_ = d.RemoveEdge(e[0], e[1])
			}
			ops += uint64(len(b.Add) + len(b.Remove))
		}
		if ng := d.Apply(); ng != g {
			g, gen, seq = ng, gen+1, ops
		}
	}
	derived := len(rest)
	for _, p := range rest {
		flush(p.Seq)
	}
	if len(batches) > 0 {
		derived++
		flush(^uint64(0))
	}
	if len(rest) > 0 {
		gen = max(gen, rest[len(rest)-1].Gen)
	}
	got := rec.serving
	if got.Gen != gen || got.Seq != seq || got.Graph.N() != g.N() || got.Graph.M() != g.M() {
		r.t.Errorf("%s: recovered generation %d seq %d with %d nodes %d edges; folding to generation %d and deriving the rest gives generation %d seq %d with %d nodes %d edges",
			what, got.Gen, got.Seq, got.Graph.N(), got.Graph.M(), folded, gen, seq, g.N(), g.M())
	}
	if rs := rec.store.Stats().Recovered; rs.PatchedPublishes != nFolded || rs.DerivedPublishes != derived {
		r.t.Errorf("%s: recovery reports %d publishes folded and %d derived, want %d and %d", what, rs.PatchedPublishes, rs.DerivedPublishes, nFolded, derived)
	}
}

// restartLegs boots the killed deployment for real, twice without a
// write in between, then once more behind a batch that was accepted and
// never published.
func (r *run) restartLegs() {
	want := r.gens[r.live().Gen]
	_, segBefore := r.tailWAL(r.dir)

	first, sealed := r.boot()
	r.checkSame("first restart", first, want)
	r.checkFolded("first restart", first)
	if _, seg := r.tailWAL(r.dir); sealed || seg != segBefore {
		r.t.Errorf("first restart sealed a segment (newest %d, was %d) although the log described generation %d completely", seg, segBefore, want.snap.Gen)
	}
	r.kill()
	after := dirBytes(r.t, r.dir)

	second, sealed := r.boot()
	r.checkSame("second restart", second, want)
	if sealed || !reflect.DeepEqual(dirBytes(r.t, r.dir), after) {
		r.t.Errorf("a second restart without writes changed the directory (sealed: %v)", sealed)
	}

	// The seal-less boot began a WAL at the recovered generation. A
	// batch accepted into it and never published makes the next boot
	// derive, so that boot seals — and begins its WAL later than the
	// one it read the batch from.
	add := r.edges(2, r.nonEdge)
	if err := r.store.LogEdgeBatch(wal.EdgeBatch{Seq: want.snap.Seq + 2, Base: len(want.table), Add: add}); err != nil {
		r.t.Fatal(err)
	}
	r.kill()
	third, sealed := r.boot()
	if got := third.serving; got.Gen != want.snap.Gen+1 || !got.Graph.HasEdge(add[0][0], add[0][1]) || !sealed {
		r.t.Errorf("restart behind an unpublished batch: generation %d (want %d), has the edge: %v, sealed: %v",
			got.Gen, want.snap.Gen+1, got.Graph.HasEdge(add[0][0], add[0][1]), sealed)
	}
	if rs := third.store.Stats().Recovered; rs.PatchedPublishes != len(third.st.Publishes) || rs.DerivedPublishes != 1 {
		r.t.Errorf("restart behind an unpublished batch folded %d of %d publishes and derived %d, want all and 1", rs.PatchedPublishes, len(third.st.Publishes), rs.DerivedPublishes)
	}
	r.kill()
	fourth, sealed := r.boot()
	if got := fourth.serving; sealed || len(fourth.st.Tail) != 0 || got.Gen != third.serving.Gen || got.Graph.M() != third.serving.Graph.M() {
		r.t.Errorf("restart after a derived boot: generation %d with %d edges and %d tail batches (sealed: %v), want generation %d with %d edges from the segment alone",
			got.Gen, got.Graph.M(), len(fourth.st.Tail), sealed, third.serving.Gen, third.serving.Graph.M())
	}
	r.kill()
}

// crashFixture is TestSingleCrashRestartRoundTrip's history over g, for
// either role and a given live worker count: flushed batches that each
// re-add batchSize edges stripped from the graph — every publish a real
// incremental rebuild — then a kill with all of them still in the WAL.
func crashFixture(t testing.TB, g *graph.Graph, sharded bool, workers, batches, batchSize int) *history {
	piece := shard.Piece{Graph: g}
	if sharded {
		var err error
		if piece, err = shard.SplitOne(g, histK, histShard); err != nil {
			t.Fatal(err)
		}
	}
	var tail [][2]int32
	piece.Graph.Edges(func(u, v int32) bool {
		tail = append(tail, [2]int32{u, v})
		return true
	})
	rand.New(rand.NewSource(8)).Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	tail = tail[:batches*batchSize]
	d := graph.NewDelta(piece.Graph)
	for _, e := range tail {
		if err := d.RemoveEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	piece.Graph = d.Apply()

	oca := core.Options{Seed: 7, C: 0.5, Workers: workers}
	opts := Options{SegmentEvery: 1 << 32}
	var h *history
	if sharded {
		h = startShard(t, piece, shard.Config{OCA: oca, Debounce: -1, IncrementalThreshold: 1}, g.N(), opts)
	} else {
		h = startSingle(t, piece.Graph, refresh.Config{OCA: oca, Debounce: -1, IncrementalThreshold: 1}, g.N(), opts)
	}
	for i := 0; i < batches; i++ {
		h.must(tail[i*batchSize:(i+1)*batchSize], nil, nil, 0)
		if snap := h.flush(); snap.RebuildMode != refresh.ModeIncremental {
			t.Fatalf("batch %d: rebuild_mode = %q, want incremental (test premise)", i, snap.RebuildMode)
		}
	}
	h.kill()
	return h
}

// TestRecoveryIndependentOfWorkers: a data directory restarted under
// another core count (a cgroup change, a restore on another host)
// serves the cover it served. core.Run draws seeds and judges coverage
// and patience per batch of Workers, so a cover re-derived under another
// worker count is another cover — which is why recovery reads the
// logged covers back instead of re-deriving them.
func TestRecoveryIndependentOfWorkers(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		for _, live := range []int{1, 2, 4} {
			h := crashFixture(t, foldGraph(t), sharded, live, 8, 4)
			want := h.gens[h.live().Gen]
			for _, replay := range []int{2, 3, 8} {
				what := fmt.Sprintf("sharded %v, live workers %d, replay workers %d", sharded, live, replay)
				rec := h.recoverAt(h.dir, func(o *core.Options) { o.Workers = replay })
				h.checkSame(what, rec, want)
				h.checkFolded(what, rec)
				rec.close()
			}
		}
	}
}

// TestFoldBuildsOneGraph: however many publishes the tail holds, the
// fold applies their edge batches as one graph.Delta. Two publishes
// that undo each other show it: a single Delta over both nets out to
// nothing and hands back the segment's graph itself, where applying
// them publish by publish would have built two.
func TestFoldBuildsOneGraph(t *testing.T) {
	h := startSingle(t, foldGraph(t), refresh.Config{OCA: core.Options{Seed: 7, C: 0.5}, Debounce: -1, IncrementalThreshold: 1}, 300, Options{})
	e := [][2]int32{{0, 299}}
	if h.live().Graph.HasEdge(0, 299) {
		t.Fatal("fixture already has edge 0-299")
	}
	h.must(e, nil, nil, 0)
	h.flush()
	h.must(nil, e, nil, 0)
	want := h.flush()
	h.kill()
	rec := h.recoverAt(h.dir, nil)
	defer rec.close()
	if rec.replayed.Gen != want.Gen || len(rec.st.Publishes) != 2 {
		t.Fatalf("recovered generation %d over %d publishes, want %d over 2", rec.replayed.Gen, len(rec.st.Publishes), want.Gen)
	}
	h.checkFolded("two publishes", rec)
	if rec.replayed.Graph != rec.st.Segment.Graph {
		t.Error("folding an add and its removal built a graph; one Delta over the whole tail returns the segment's own")
	}
}

// TestParentCommitWALRecoversThroughTheEngine: a WAL written before
// cover patches existed (testdata/parent-wal-…, two publishes past the
// parent-commit segment beside it: markers, no patches) recovers the
// way it always did — replayed through the engine, sealed by the boot.
func TestParentCommitWALRecoversThroughTheEngine(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{SegmentName(3), WALName(3)} {
		raw, err := os.ReadFile(filepath.Join("testdata", "parent-"+name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range readWAL(t, filepath.Join(dir, WALName(3))) {
		if rec.Type == wal.RecCoverPatch {
			t.Fatal("fixture is not a parent-commit WAL: it holds a cover patch")
		}
	}
	s := openStore(t, dir, Options{MaxNodes: 80})
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tail) != 2 || len(st.Publishes) != 2 || len(st.Patches) != 0 || st.LastGen != 5 || st.LastSeq != 21 {
		t.Fatalf("loaded %d batches, %d markers, %d patches, high-water %d/%d; want 2, 2, 0, 5/21",
			len(st.Tail), len(st.Publishes), len(st.Patches), st.LastGen, st.LastSeq)
	}
	// The configuration the fixture was written under.
	snap, err := ReplaySingle(st, ReplayConfig{Refresh: refresh.Config{
		OCA: core.Options{Seed: 1, C: 0.5}, IncrementalThreshold: 1, MaxNodes: 80,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// What the parent commit's live worker logged as it published.
	if snap.Gen != 5 || snap.Seq != 21 || snap.Graph.N() != 11 || snap.Graph.M() != 31 || snap.Cover.Len() != 1 {
		t.Errorf("recovered generation %d seq %d: %d nodes %d edges %d communities; the fixture's writer served 5/21: 11, 31, 1",
			snap.Gen, snap.Seq, snap.Graph.N(), snap.Graph.M(), snap.Cover.Len())
	}
	if rs := s.Stats().Recovered; rs.PatchedPublishes != 0 || rs.DerivedPublishes != 2 {
		t.Errorf("recovery folded %d publishes and derived %d, want 0 and 2", rs.PatchedPublishes, rs.DerivedPublishes)
	}
	if err := s.Seal(snap, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Generations(); !slices.Equal(got, []uint64{3, 5}) {
		t.Errorf("segments after the boot seal = %v, want [3 5]: a derived generation is made durable", got)
	}
}

// TestCoverPatchRecordsAreAdditive is the compatibility promise in the
// other direction: what this commit writes, the parent commit reads. A
// WAL holds record types 1, 2 and 3 only, and a reader that skips type 3
// — as every reader skips types it does not know — sees the tail, the
// markers and the high-water mark it always saw, and recovers from them
// through the engine.
func TestCoverPatchRecordsAreAdditive(t *testing.T) {
	h := crashFixture(t, foldGraph(t), false, 2, 8, 4)
	path := filepath.Join(h.dir, WALName(1))
	var stripped []wal.Record
	types := map[byte]int{}
	for _, rec := range readWAL(t, path) {
		types[rec.Type]++
		if rec.Type != wal.RecCoverPatch {
			stripped = append(stripped, rec)
		}
	}
	if want := (map[byte]int{wal.RecEdgeBatch: 8, wal.RecPublish: 8, wal.RecCoverPatch: 8}); !reflect.DeepEqual(types, want) {
		t.Fatalf("record types written = %v, want %v", types, want)
	}
	with, err := h.open(h.dir).Load()
	if err != nil {
		t.Fatal(err)
	}
	old := copyDir(t, h.dir)
	rewriteWAL(t, filepath.Join(old, WALName(1)), stripped, nil)
	rec := h.recoverAt(old, nil)
	defer rec.close()
	without := rec.st
	scan := without.Stats // as Load left it, before replay added its counts
	scan.PatchedPublishes, scan.DerivedPublishes = 0, 0
	if !reflect.DeepEqual(without.Tail, with.Tail) || !reflect.DeepEqual(without.Publishes, with.Publishes) ||
		without.LastGen != with.LastGen || without.LastSeq != with.LastSeq || scan != with.Stats {
		t.Errorf("a reader skipping cover patches loads tail/markers/high-water %d/%d/%d-%d (%+v), one reading them %d/%d/%d-%d (%+v)",
			len(without.Tail), len(without.Publishes), without.LastGen, without.LastSeq, without.Stats,
			len(with.Tail), len(with.Publishes), with.LastGen, with.LastSeq, with.Stats)
	}
	if len(with.Patches) != 8 || len(without.Patches) != 0 {
		t.Errorf("patches loaded: %d with, %d without; want 8 and 0", len(with.Patches), len(without.Patches))
	}
	live := h.live()
	if got := rec.replayed; got.Gen != live.Gen || got.Seq != live.Seq || got.Graph.M() != live.Graph.M() {
		t.Errorf("recovered without patches: generation %d seq %d %d edges, live %d/%d/%d", got.Gen, got.Seq, got.Graph.M(), live.Gen, live.Seq, live.Graph.M())
	}
	if rs := rec.store.Stats().Recovered; rs.PatchedPublishes != 0 || rs.DerivedPublishes != 8 {
		t.Errorf("recovery without patches folded %d publishes and derived %d, want 0 and 8", rs.PatchedPublishes, rs.DerivedPublishes)
	}
	if err := rec.store.Seal(rec.replayed, nil); err != nil {
		t.Fatal(err)
	}
	if got := rec.store.Generations(); !slices.Equal(got, []uint64{1, live.Gen}) {
		t.Errorf("segments after the boot seal of a derived tail = %v, want [1 %d]", got, live.Gen)
	}
}

// TestBootSealMakesOnlyDerivedStateDurable pins when the seal between
// Load and Begin writes a segment. A generation read back whole from
// the log is already durable and is not sealed again — unless the boot
// learned a new identity or partition epoch, which only a segment
// records. The rule ends at Begin: a later seal at the same generation
// (shutdown, a map install) is written, over a live WAL that keeps the
// batches accepted since; and the publishes of the tail keep counting
// towards SegmentEvery, so skipping boot seals cannot grow the tail a
// restart reads without bound.
func TestBootSealMakesOnlyDerivedStateDurable(t *testing.T) {
	killed := func(t *testing.T) (*history, recovery) {
		h := startSingle(t, foldGraph(t), refresh.Config{OCA: core.Options{Seed: 7, C: 0.5}, Debounce: -1, IncrementalThreshold: 1}, 300, Options{SegmentEvery: 4})
		for i := int32(0); i < 3; i++ {
			h.must([][2]int32{h.absentEdge(i)}, nil, nil, 0)
			h.flush()
		}
		h.kill()
		rec := h.recoverAt(h.dir, nil)
		t.Cleanup(rec.close)
		h.checkFolded("three described publishes", rec)
		return h, rec
	}
	sealedAt := func(rec recovery) []uint64 {
		t.Helper()
		if err := rec.store.Seal(rec.replayed, nil); err != nil {
			t.Fatal(err)
		}
		return rec.store.Generations()
	}

	t.Run("described", func(t *testing.T) {
		_, rec := killed(t)
		if got := sealedAt(rec); !slices.Equal(got, []uint64{1}) {
			t.Errorf("segments after the boot seal = %v, want [1]", got)
		}
	})
	t.Run("new node bounds", func(t *testing.T) {
		_, rec := killed(t)
		rec.store.SetNodeBounds(300, 600)
		if got := sealedAt(rec); !slices.Equal(got, []uint64{1, 4}) {
			t.Errorf("segments after a boot seal under new bounds = %v, want [1 4]", got)
		}
	})
	t.Run("new epoch", func(t *testing.T) {
		_, rec := killed(t)
		rec.store.SetPartition(1, []byte("map"))
		if got := sealedAt(rec); !slices.Equal(got, []uint64{1, 4}) {
			t.Errorf("segments after a boot seal under a new epoch = %v, want [1 4]", got)
		}
	})
	t.Run("after Begin", func(t *testing.T) {
		h, rec := killed(t)
		sealedAt(rec)
		if err := rec.store.Begin(rec.replayed.Gen); err != nil {
			t.Fatal(err)
		}
		// Accepted, logged, not published — then a clean shutdown.
		batch := wal.EdgeBatch{Seq: rec.replayed.Seq + 1, Add: [][2]int32{h.absentEdge(9)}}
		if err := rec.store.LogEdgeBatch(batch); err != nil {
			t.Fatal(err)
		}
		if got := sealedAt(rec); !slices.Equal(got, []uint64{1, 4}) {
			t.Errorf("segments after the shutdown seal = %v, want [1 4]", got)
		}
		rec.store.Close()
		again := h.recoverAt(h.dir, nil)
		defer again.close()
		if len(again.st.Tail) != 1 || !reflect.DeepEqual(again.st.Tail[0], batch) || again.st.Segment.Info.Gen != 4 {
			t.Errorf("after the shutdown seal the next boot loads segment %d and tail %+v, want segment 4 and the accepted batch %+v",
				again.st.Segment.Info.Gen, again.st.Tail, batch)
		}
	})
	t.Run("segment-every counts across the restart", func(t *testing.T) {
		h, _ := killed(t)
		if _, sealed := h.boot(); sealed {
			t.Fatal("the boot sealed a fully described tail")
		}
		h.must([][2]int32{h.absentEdge(9)}, nil, nil, 0)
		snap := h.flush()
		if got := h.store.Generations(); !slices.Equal(got, []uint64{1, snap.Gen}) {
			t.Errorf("segments after the 4th publish since generation 1 = %v, want [1 %d] (-segment-every 4)", got, snap.Gen)
		}
		h.kill()
	})
}

// absentEdge is an edge from node u that the live graph lacks.
func (h *history) absentEdge(u int32) [2]int32 {
	g := h.live().Graph
	for v := int32(g.N() - 1); ; v-- {
		if v != u && !g.HasEdge(u, v) {
			return [2]int32{u, v}
		}
	}
}

// BenchmarkRecoverTail is the budget line behind recover_ms on the
// mutating workloads: a restarted shard reading a four-publish
// incremental tail — the benchmark's replayTail, in its 16-edge batches —
// on top of its segment, one op = Load + ReplayShard. fold reads the
// tail as this commit logs it; engine reads the same directory with the
// cover patches stripped, which is the tail every commit before wrote
// and the path an undescribed publish still takes. The fixture (10k-node
// LFR, one of two shards) is built and killed once, outside the timer.
func BenchmarkRecoverTail(b *testing.B) {
	bench, err := lfr.Generate(lfr.Params{
		N: 10000, AvgDeg: 14, MaxDeg: 30, Mu: 0.02,
		MinCom: 25, MaxCom: 60, Seed: 17,
	})
	if err != nil {
		b.Fatalf("lfr.Generate: %v", err)
	}
	h := crashFixture(b, bench.Graph, true, 0, 4, 16)
	stripped := copyDir(b, h.dir)
	path := filepath.Join(stripped, WALName(1))
	rewriteWAL(b, path, slices.DeleteFunc(readWAL(b, path), func(r wal.Record) bool { return r.Type == wal.RecCoverPatch }), nil)

	for _, leg := range []struct {
		name, dir        string
		patched, derived int
	}{{"fold", h.dir, 4, 0}, {"engine", stripped, 0, 4}} {
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := h.opts
				o.Dir = leg.dir
				s, err := Open(o)
				if err != nil {
					b.Fatal(err)
				}
				st, err := s.Load()
				if err != nil {
					b.Fatal(err)
				}
				snap, _, err := ReplayShard(st, histShard, histK, h.scfg, h.maxNodes)
				if err != nil {
					b.Fatal(err)
				}
				if rs := st.Stats; snap.Gen != 5 || rs.PatchedPublishes != leg.patched || rs.DerivedPublishes != leg.derived {
					b.Fatalf("recovered generation %d, %d publishes folded and %d derived; want 5, %d, %d", snap.Gen, rs.PatchedPublishes, rs.DerivedPublishes, leg.patched, leg.derived)
				}
				st.Segment.Close()
				s.Close()
			}
		})
	}
}
