package refresh

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/lfr"
	"repro/internal/metrics"
	"repro/internal/spectral"
)

// cliquesAndFringe builds two disjoint K6 cliques (nodes 0–5 and 6–11)
// plus an uncovered fringe: nodes 12 and 13 joined by a single edge —
// a size-2 local optimum that MinCommunitySize drops, so the fringe is
// covered by no community.
func cliquesAndFringe() *graph.Graph {
	b := graph.NewBuilder(14)
	for i := int32(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			b.AddEdge(i, j)
			b.AddEdge(6+i, 6+j)
		}
	}
	b.AddEdge(12, 13)
	return b.Build()
}

func flushOne(t *testing.T, w *Worker, add, remove [][2]int32) *Snapshot {
	t.Helper()
	if _, _, err := w.Enqueue(add, remove); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	snap, err := w.Flush(ctx)
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return snap
}

// TestFastpathSkipsOCA: a batch touching no community and adding no
// structure (removing the uncovered fringe edge) publishes a new
// generation in ModeFastpath with the community list carried unchanged
// — the same community slices, not merely equal ones, proving OCA never
// ran.
func TestFastpathSkipsOCA(t *testing.T) {
	opt := core.Options{Seed: 3, C: 0.5}
	w := New(testSnapshot(t, cliquesAndFringe(), opt), Config{
		OCA: opt, Debounce: time.Millisecond, IncrementalThreshold: 0.5,
	})
	w.Start()
	defer w.Close()
	old := w.Snapshot()
	if old.Cover.Len() != 2 {
		t.Fatalf("initial cover has %d communities, want the 2 cliques", old.Cover.Len())
	}

	snap := flushOne(t, w, nil, [][2]int32{{12, 13}})
	if snap.RebuildMode != ModeFastpath {
		t.Fatalf("rebuild_mode = %q, want %q", snap.RebuildMode, ModeFastpath)
	}
	if snap.Gen != old.Gen+1 {
		t.Fatalf("generation = %d, want %d", snap.Gen, old.Gen+1)
	}
	if snap.Graph.HasEdge(12, 13) {
		t.Fatal("removed edge still present in the published graph")
	}
	if snap.Cover.Len() != old.Cover.Len() {
		t.Fatalf("community count changed: %d -> %d", old.Cover.Len(), snap.Cover.Len())
	}
	for i := range snap.Cover.Communities {
		if &snap.Cover.Communities[i][0] != &old.Cover.Communities[i][0] {
			t.Fatalf("community %d was rebuilt, want the carried slice", i)
		}
	}
	if snap.DirtyNodes != 0 {
		t.Fatalf("fastpath dirty nodes = %d, want 0", snap.DirtyNodes)
	}
}

// TestIncrementalModeSelection drives the threshold boundary: the same
// one-community batch rebuilds incrementally when the touched fraction
// is within the threshold, fully when it is above it, and additions in
// an uncovered region take the scoped incremental path even though they
// touch no community.
func TestIncrementalModeSelection(t *testing.T) {
	opt := core.Options{Seed: 3, C: 0.5}
	cases := []struct {
		name      string
		threshold float64
		add       [][2]int32
		remove    [][2]int32
		wantMode  string
	}{
		// One touched community out of 2 = fraction 0.5.
		{"within threshold", 0.5, [][2]int32{{0, 12}}, nil, ModeIncremental},
		{"above threshold", 0.49, [][2]int32{{0, 12}}, nil, ModeFull},
		{"disabled", 0, [][2]int32{{0, 12}}, nil, ModeFull},
		// Touches both communities: fraction 1 > 0.5.
		{"cross-community above", 0.5, [][2]int32{{0, 6}}, nil, ModeFull},
		{"cross-community within", 1, [][2]int32{{0, 6}}, nil, ModeIncremental},
		// Uncovered fringe: additions must still be searched (they can
		// seed new structure), removals need no OCA at all.
		{"uncovered addition", 0.5, [][2]int32{{12, 13}, {12, 5}}, nil, ModeIncremental},
		{"uncovered removal", 0.5, nil, [][2]int32{{12, 13}}, ModeFastpath},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := cliquesAndFringe()
			if tc.name == "uncovered addition" {
				// Start without the fringe edge so both mutations are real
				// additions between uncovered nodes.
				d := graph.NewDelta(g)
				if err := d.RemoveEdge(12, 13); err != nil {
					t.Fatal(err)
				}
				g = d.Apply()
			}
			w := New(testSnapshot(t, g, opt), Config{
				OCA: opt, Debounce: time.Millisecond, IncrementalThreshold: tc.threshold,
			})
			w.Start()
			defer w.Close()
			snap := flushOne(t, w, tc.add, tc.remove)
			if snap.RebuildMode != tc.wantMode {
				t.Fatalf("rebuild_mode = %q, want %q", snap.RebuildMode, tc.wantMode)
			}
			if tc.wantMode == ModeIncremental && snap.DirtyNodes == 0 {
				t.Fatal("incremental rebuild reported an empty dirty region")
			}
		})
	}
}

// TestUnmergedCoverForcesFullRebuild: a generation without a Result —
// a preloaded cover, or a carry-over after a failed rebuild — never
// went through the ρ-merge, so MergeInto's fixpoint premise does not
// hold; the first rebuild must take the full path even for a tiny
// batch, after which the engine is live again.
func TestUnmergedCoverForcesFullRebuild(t *testing.T) {
	opt := core.Options{Seed: 3, C: 0.5}
	g := cliquesAndFringe()
	res, err := core.Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a preloaded cover: same communities, no Result.
	w := New(NewSnapshot(g, res.Cover, nil, res.C, 0), Config{
		OCA: opt, Debounce: time.Millisecond, IncrementalThreshold: 1,
	})
	w.Start()
	defer w.Close()
	snap := flushOne(t, w, [][2]int32{{0, 12}}, nil)
	if snap.RebuildMode != ModeFull {
		t.Fatalf("first rebuild over an unmerged cover: mode = %q, want %q", snap.RebuildMode, ModeFull)
	}
	snap = flushOne(t, w, nil, [][2]int32{{0, 12}})
	if snap.RebuildMode != ModeIncremental {
		t.Fatalf("second rebuild: mode = %q, want %q (engine re-enabled)", snap.RebuildMode, ModeIncremental)
	}
}

// TestIncrementalBootstrapsEmptyCover: a worker starting from an
// edgeless graph (empty cover) must still discover communities once
// mutations create structure — the scoped run over the new endpoints is
// the bootstrap path, so enabling the incremental engine cannot leave a
// shard coverless forever.
func TestIncrementalBootstrapsEmptyCover(t *testing.T) {
	g := graph.NewBuilder(8).Build()
	opt := core.Options{Seed: 5, C: 0.5}
	w := New(testSnapshot(t, g, opt), Config{
		OCA: opt, Debounce: time.Millisecond, IncrementalThreshold: 0.25,
	})
	w.Start()
	defer w.Close()
	if w.Snapshot().Cover.Len() != 0 {
		t.Fatal("edgeless graph should start with an empty cover")
	}
	var add [][2]int32
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			add = append(add, [2]int32{i, j})
		}
	}
	snap := flushOne(t, w, add, nil)
	if snap.RebuildMode != ModeIncremental {
		t.Fatalf("rebuild_mode = %q, want %q", snap.RebuildMode, ModeIncremental)
	}
	if snap.Cover.Len() != 1 {
		t.Fatalf("cover has %d communities after clique creation, want 1", snap.Cover.Len())
	}
	if got := snap.Cover.Communities[0]; len(got) != 5 {
		t.Fatalf("bootstrap community = %v, want the 5-clique", got)
	}
	// The patched index and stats must describe the new cover.
	for v := int32(0); v < 5; v++ {
		if !snap.Index.Covered(v) {
			t.Fatalf("node %d not covered in the patched index", v)
		}
	}
	if snap.Stats.CoveredNodes != 5 || snap.Stats.Communities != 1 {
		t.Fatalf("patched stats = %+v, want 5 covered nodes in 1 community", snap.Stats)
	}
}

// TestIncrementalSnapshotConsistency: after an incremental rebuild the
// patched index and stats must be byte-identical to what a from-scratch
// Build/Stats over the served cover would produce.
func TestIncrementalSnapshotConsistency(t *testing.T) {
	opt := core.Options{Seed: 3, C: 0.5}
	w := New(testSnapshot(t, cliquesAndFringe(), opt), Config{
		OCA: opt, Debounce: time.Millisecond, IncrementalThreshold: 1,
	})
	w.Start()
	defer w.Close()
	// Grow clique A by pulling in the fringe, then shrink it again.
	snap := flushOne(t, w, [][2]int32{{0, 12}, {1, 12}, {2, 12}, {3, 12}}, nil)
	snap = flushOne(t, w, nil, [][2]int32{{0, 12}, {1, 12}})
	if snap.RebuildMode != ModeIncremental {
		t.Fatalf("rebuild_mode = %q, want %q", snap.RebuildMode, ModeIncremental)
	}
	n := snap.Graph.N()
	wantStats := snap.Cover.Stats(n)
	if snap.Stats != wantStats {
		t.Fatalf("patched stats %+v != recomputed %+v", snap.Stats, wantStats)
	}
	for v := int32(0); int(v) < n; v++ {
		got := snap.Index.Communities(v)
		var want []int32
		for ci, c := range snap.Cover.Communities {
			if c.Contains(v) {
				want = append(want, int32(ci))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("node %d memberships = %v, want %v", v, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %d memberships = %v, want %v", v, got, want)
			}
		}
	}
}

// TestIncrementalCoverOrderCanonical is the regression test for the
// carried ordering bug: incremental rebuilds used to publish covers in
// patch order (kept survivors first, fresh discoveries appended), so a
// fresh community larger than the carried ones came out last instead of
// first. Published order must be the canonical size-sorted order
// (cover.Less) regardless of rebuild mode, with the patched index
// permuted to match.
func TestIncrementalCoverOrderCanonical(t *testing.T) {
	opt := core.Options{Seed: 3, C: 0.5}
	w := New(testSnapshot(t, cliquesAndFringe(), opt), Config{
		OCA: opt, Debounce: time.Millisecond, IncrementalThreshold: 0.5,
	})
	w.Start()
	defer w.Close()

	// Grow clique B (nodes 6–11) to 7 members by wiring in node 12. In
	// patch order the untouched clique A (size 6) stays at position 0
	// and the regrown B (size 7) is appended after it — the buggy order.
	add := make([][2]int32, 0, 6)
	for i := int32(6); i < 12; i++ {
		add = append(add, [2]int32{i, 12})
	}
	snap := flushOne(t, w, add, nil)
	if snap.RebuildMode != ModeIncremental {
		t.Fatalf("rebuild_mode = %q, want %q", snap.RebuildMode, ModeIncremental)
	}
	if snap.Cover.Len() < 2 {
		t.Fatalf("cover has %d communities, want at least 2", snap.Cover.Len())
	}
	for i := 1; i < snap.Cover.Len(); i++ {
		if cover.Less(snap.Cover.Communities[i], snap.Cover.Communities[i-1]) {
			t.Fatalf("published cover not canonically sorted: community %d (size %d) after %d (size %d)",
				i, len(snap.Cover.Communities[i]), i-1, len(snap.Cover.Communities[i-1]))
		}
	}
	if len(snap.Cover.Communities[0]) != 7 {
		t.Fatalf("largest community size = %d at position 0, want the regrown 7-clique first",
			len(snap.Cover.Communities[0]))
	}
	// The permuted index must describe the sorted cover exactly.
	for v := int32(0); int(v) < snap.Graph.N(); v++ {
		got := snap.Index.Communities(v)
		var want []int32
		for ci, c := range snap.Cover.Communities {
			if c.Contains(v) {
				want = append(want, int32(ci))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("node %d memberships = %v, want %v", v, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %d memberships = %v, want %v", v, got, want)
			}
		}
	}
	// Canonical order is a pure function of the community set: sorting
	// any shuffle of the published communities reproduces it.
	shuffled := snap.Cover.Clone()
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled.Communities), func(i, j int) {
		shuffled.Communities[i], shuffled.Communities[j] = shuffled.Communities[j], shuffled.Communities[i]
	})
	shuffled.SortBySize()
	for i, c := range shuffled.Communities {
		if !c.Equal(snap.Cover.Communities[i]) {
			t.Fatalf("canonical order not a pure function of the set: position %d differs", i)
		}
	}
}

// ladderRungs are the mutation batch sizes of the batch-size ladder.
var ladderRungs = []int{1, 10, 100, 1000}

// ladderFixture is the batch-size ladder's input, shared by
// TestIncrementalLadder and BenchmarkRebuildLadder: an LFR graph, its
// spectral c, and its edges in a fixed shuffled order, so that rung b
// strips edges[:b] and re-adds them as one batch.
//
// Well-separated communities (µ = 0.02): in this regime OCA recovers
// the planted structure essentially exactly, so the NMI gap isolates
// warm-start/patching drift rather than algorithmic noise (same
// reasoning as TestIncrementalEquivalence). 10k nodes (~250
// communities) for two reasons: the 1000-edge rung still leaves the
// curve somewhere to go (at 600 nodes a 10-edge batch already dirties
// 374 of them), and one community found differently — which the seed
// fan-out's worker count decides — costs NMI 0.004 rather than the
// 0.028 that put the 600-node ladder under its floor at GOMAXPROCS 3
// and 8.
type ladderFixture struct {
	bench *lfr.Benchmark
	opt   core.Options
	edges [][2]int32
}

func newLadderFixture(tb testing.TB) *ladderFixture {
	tb.Helper()
	bench, err := lfr.Generate(lfr.Params{
		N: 10000, AvgDeg: 14, MaxDeg: 30, Mu: 0.02,
		MinCom: 25, MaxCom: 60, Seed: 17,
	})
	if err != nil {
		tb.Fatalf("lfr.Generate: %v", err)
	}
	c, err := spectral.C(bench.Graph, spectral.Options{})
	if err != nil {
		tb.Fatalf("spectral.C: %v", err)
	}
	f := &ladderFixture{bench: bench, opt: core.Options{Seed: 11, C: c}}
	bench.Graph.Edges(func(u, v int32) bool {
		f.edges = append(f.edges, [2]int32{u, v})
		return true
	})
	rng := rand.New(rand.NewSource(23))
	rng.Shuffle(len(f.edges), func(i, j int) { f.edges[i], f.edges[j] = f.edges[j], f.edges[i] })
	return f
}

// rung returns the snapshot a rung's rebuild starts from — the graph
// with the first b shuffled edges stripped, covered by a cold run — and
// the batch that re-adds them.
func (f *ladderFixture) rung(tb testing.TB, b int) (*Snapshot, [][2]int32) {
	tb.Helper()
	if b > len(f.edges) {
		tb.Fatalf("ladder rung %d exceeds edge count %d", b, len(f.edges))
	}
	batch := f.edges[:b]
	d := graph.NewDelta(f.bench.Graph)
	for _, e := range batch {
		if err := d.RemoveEdge(e[0], e[1]); err != nil {
			tb.Fatal(err)
		}
	}
	return testSnapshot(tb, d.Apply(), f.opt), batch
}

// TestIncrementalLadder is the batch-size equivalence gate: starting
// from an LFR graph with b edges stripped, one incremental rebuild that
// re-adds them must land within NMI ≥ 0.98 of a cold full run on the
// final graph, at every rung of the ladder. The threshold is 1 so even
// the large rungs take the incremental path.
func TestIncrementalLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-OCA-run equivalence ladder")
	}
	f := newLadderFixture(t)
	final := f.bench.Graph
	n := final.N()
	cold, err := core.Run(final, f.opt)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}

	for _, batch := range ladderRungs {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			start, removed := f.rung(t, batch)
			w := New(start, Config{
				OCA: f.opt, Debounce: time.Millisecond, IncrementalThreshold: 1,
			})
			w.Start()
			defer w.Close()
			snap := flushOne(t, w, removed, nil)
			if snap.Graph.M() != final.M() {
				t.Fatalf("rebuilt graph has %d edges, want %d", snap.Graph.M(), final.M())
			}
			if snap.RebuildMode != ModeIncremental {
				t.Fatalf("rebuild_mode = %q, want %q", snap.RebuildMode, ModeIncremental)
			}
			nmi := metrics.NMI(snap.Cover, cold.Cover, n)
			if nmi < 0.98 {
				t.Errorf("NMI(incremental, cold) = %.4f at batch %d, want ≥ 0.98 (incremental %d communities, cold %d, dirty %d)",
					nmi, batch, snap.Cover.Len(), cold.Cover.Len(), snap.DirtyNodes)
			}
		})
	}
	// Anchor against degeneracy: the cold reference must recover the
	// planted structure.
	if truthNMI := metrics.NMI(cold.Cover, f.bench.Communities, n); truthNMI < 0.6 {
		t.Errorf("cold run vs planted truth NMI = %.4f, suspiciously low", truthNMI)
	}
}

// BenchmarkRebuildLadder draws the curve the ladder test only gates:
// the latency of publishing one b-edge batch through the incremental
// engine against the same batch through a worker that re-runs OCA from
// scratch (DisableWarmStart), per rung. One op is Enqueue + Flush on a
// fresh worker over the rung's start snapshot; the fixture and the
// start snapshots are built outside the timer.
func BenchmarkRebuildLadder(b *testing.B) {
	f := newLadderFixture(b)
	for _, batch := range ladderRungs {
		start, edges := f.rung(b, batch)
		for _, mode := range []struct {
			name string
			cfg  Config
			want string
		}{
			{"incremental", Config{OCA: f.opt, Debounce: -1, IncrementalThreshold: 1}, ModeIncremental},
			{"cold", Config{OCA: f.opt, Debounce: -1, DisableWarmStart: true}, ModeFull},
		} {
			b.Run(fmt.Sprintf("batch=%d/%s", batch, mode.name), func(b *testing.B) {
				var dirty int
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w := New(start, mode.cfg)
					w.Start()
					b.StartTimer()
					if _, _, err := w.Enqueue(edges, nil); err != nil {
						b.Fatalf("Enqueue: %v", err)
					}
					snap, err := w.Flush(context.Background())
					b.StopTimer()
					w.Close()
					if err != nil {
						b.Fatalf("Flush: %v", err)
					}
					if snap.RebuildMode != mode.want {
						b.Fatalf("rebuild_mode = %q, want %q", snap.RebuildMode, mode.want)
					}
					dirty = snap.DirtyNodes
					b.StartTimer()
				}
				if mode.want == ModeIncremental {
					b.ReportMetric(float64(dirty), "dirty_nodes")
				}
			})
		}
	}
}
