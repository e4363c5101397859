package refresh

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/spectral"
)

// TestWorkerGrowsNodeSet verifies the growth path: with MaxNodes above
// the initial size, added edges naming new ids extend the graph at the
// next rebuild (intermediate ids materialize as isolated nodes), while
// ids at or past the cap stay rejected. A fastpath publish that grew
// the node set builds its index and stats afresh, equal to the
// from-scratch pair over the carried cover.
func TestWorkerGrowsNodeSet(t *testing.T) {
	w := newTestWorker(t, Config{MaxNodes: 20})
	if _, queued, err := w.Enqueue([][2]int32{{0, 12}}, nil); err != nil || queued != 1 {
		t.Fatalf("growth enqueue: queued=%d err=%v", queued, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	snap, err := w.Flush(ctx)
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if snap.Graph.N() != 13 {
		t.Fatalf("grown graph has %d nodes, want 13", snap.Graph.N())
	}
	if !snap.Graph.HasEdge(0, 12) {
		t.Error("grown graph is missing the new edge {0, 12}")
	}
	if snap.Graph.Degree(11) != 0 {
		t.Error("intermediate grown node 11 should be isolated")
	}
	if snap.Index.N() != 13 {
		t.Errorf("index covers %d nodes, want 13", snap.Index.N())
	}

	// Removals may name pending-growth nodes within the same batch.
	prev := snap
	if _, _, err := w.Enqueue([][2]int32{{1, 15}}, [][2]int32{{15, 1}}); err != nil {
		t.Fatalf("grow-then-remove batch: %v", err)
	}
	if snap, err = w.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if snap.Graph.N() != 16 || snap.Graph.HasEdge(1, 15) {
		t.Errorf("grow-then-remove: n=%d HasEdge(1,15)=%v, want 16 nodes without the edge", snap.Graph.N(), snap.Graph.HasEdge(1, 15))
	}

	// The same growth as a fastpath publish (a patch that removes and
	// adds nothing), assembled the way a mirror replays it: the carried
	// cover over the grown graph gets a fresh index and stats.
	fp := (&Patch{Mode: ModeFastpath, C: prev.C}).Reassemble(prev, snap.Graph, Assemble)
	if fp.Cover != prev.Cover {
		t.Fatal("growth fastpath: the cover was not carried")
	}
	if fp.Index == prev.Index || fp.Index.N() != 16 {
		t.Fatalf("growth fastpath: index over %d nodes (shared: %v), want a fresh one over 16", fp.Index.N(), fp.Index == prev.Index)
	}
	if want := index.Build(prev.Cover, 16); !reflect.DeepEqual(fp.Index, want) {
		t.Errorf("growth fastpath: index differs from index.Build over its cover")
	}
	if want := prev.Cover.Stats(16); fp.Stats != want {
		t.Errorf("growth fastpath: stats %+v, want Cover.Stats %+v", fp.Stats, want)
	}

	// The cap is a hard ceiling; removals never reach unknown ids.
	if _, _, err := w.Enqueue([][2]int32{{0, 20}}, nil); err == nil {
		t.Error("add past MaxNodes accepted")
	}
	if _, _, err := w.Enqueue(nil, [][2]int32{{0, 18}}); err == nil {
		t.Error("remove naming an unmaterialized id accepted")
	}
}

// TestRederiveCOnDrift pins a deliberately wrong c and sets a tiny
// drift threshold: the first mutation-triggered rebuild must re-derive
// c from the current spectrum, and later rebuilds must keep following
// the re-derived value instead of snapping back to the configured one.
func TestRederiveCOnDrift(t *testing.T) {
	const pinned = 0.5
	w := newTestWorker(t, Config{
		OCA:            core.Options{Seed: 1, C: pinned},
		RederiveCAfter: 0.01, // any mutation exceeds 1% of ~30 edges
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, _, err := w.Enqueue([][2]int32{{0, 9}}, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := w.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := spectral.C(snap.Graph, spectral.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(snap.C-want) > 1e-6 || snap.C == pinned {
		t.Fatalf("post-drift c = %g, want re-derived %g (pinned was %g)", snap.C, want, pinned)
	}

	// A follow-up rebuild under the threshold keeps the re-derived c.
	if _, _, err := w.Enqueue(nil, [][2]int32{{0, 9}}); err != nil {
		t.Fatal(err)
	}
	snap2, err := w.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.C == pinned {
		t.Errorf("second rebuild snapped back to the configured c=%g", pinned)
	}
}

// TestRederiveDisabledKeepsPinnedC is the control: with the threshold
// unset the pinned value survives arbitrarily many rebuilds.
func TestRederiveDisabledKeepsPinnedC(t *testing.T) {
	w := newTestWorker(t, Config{OCA: core.Options{Seed: 1, C: 0.5}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, _, err := w.Enqueue([][2]int32{{0, 9}}, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := w.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.C != 0.5 {
		t.Errorf("c drifted to %g with re-derivation disabled", snap.C)
	}
}

// TestAssembleHook checks the one assembly hook, Config.Assemble:
// a full publish hands it no PatchContext, incremental and fastpath
// publishes hand it one whose Kept prefix is the carried part of the
// published cover in patch order, and a hook that just calls the
// built-in Assemble publishes exactly what a hook-less worker fed the
// same batches does — which is what lets the shard layer wrap the
// built-in assembler with its ghost filter and ownership metadata.
func TestAssembleHook(t *testing.T) {
	type call struct {
		pc    *PatchContext
		comms []cover.Community // the hook's cover, in patch order
	}
	var calls []call
	// Three disjoint K6 cliques (0–5, 6–11, 12–17) and an uncovered
	// fringe edge {18, 19}.
	gb := graph.NewBuilder(20)
	for base := int32(0); base < 18; base += 6 {
		for i := base; i < base+6; i++ {
			for j := i + 1; j < base+6; j++ {
				gb.AddEdge(i, j)
			}
		}
	}
	gb.AddEdge(18, 19)
	g := gb.Build()
	opt := core.Options{Seed: 3, C: 0.5}
	cfg := Config{OCA: opt, Debounce: time.Millisecond, IncrementalThreshold: 0.5}
	plain := New(testSnapshot(t, g, opt), cfg)
	cfg.Assemble = func(g *graph.Graph, cv *cover.Cover, res *core.Result, c float64, d time.Duration, pc *PatchContext) *Snapshot {
		calls = append(calls, call{pc, append([]cover.Community(nil), cv.Communities...)})
		return Assemble(g, cv, res, c, d, pc)
	}
	hooked := New(testSnapshot(t, g, opt), cfg)
	for _, w := range []*Worker{plain, hooked} {
		w.Start()
		t.Cleanup(w.Close)
	}

	batches := []struct {
		add, remove [][2]int32
		mode        string
	}{
		{add: [][2]int32{{0, 6}}, mode: ModeFull},          // touches two of three communities
		{add: [][2]int32{{12, 18}}, mode: ModeIncremental}, // touches one of three
		{remove: [][2]int32{{18, 19}}, mode: ModeFastpath}, // touches none
	}
	for i, b := range batches {
		old := hooked.Snapshot()
		got, want := flushOne(t, hooked, b.add, b.remove), flushOne(t, plain, b.add, b.remove)
		if got.RebuildMode != b.mode {
			t.Fatalf("batch %d: rebuild_mode = %q, want %q", i, got.RebuildMode, b.mode)
		}
		if len(calls) != i+1 {
			t.Fatalf("batch %d: hook ran %d times in total, want %d", i, len(calls), i+1)
		}

		pc, comms := calls[i].pc, calls[i].comms
		if (pc == nil) != (b.mode == ModeFull) {
			t.Fatalf("batch %d (%s): hook got pc = %v", i, b.mode, pc)
		}
		if pc != nil {
			if pc.Old != old {
				t.Fatalf("batch %d: pc.Old is not the previous generation", i)
			}
			if len(pc.Add) != len(b.add) || len(pc.Remove) != len(b.remove) {
				t.Fatalf("batch %d: pc carries %d adds / %d removes, want %d / %d", i, len(pc.Add), len(pc.Remove), len(b.add), len(b.remove))
			}
			// Communities[:Kept] are exactly the previous generation's
			// communities the publish did not remove, in their previous
			// order.
			kept := []cover.Community{}
			for ci, c := range old.Cover.Communities {
				if !slices.Contains(got.Patch.Removed, int32(ci)) {
					kept = append(kept, c)
				}
			}
			if pc.Kept != len(kept) || !reflect.DeepEqual(comms[:pc.Kept], kept) {
				t.Fatalf("batch %d: Kept = %d, carried prefix %v, want the %d unremoved previous communities %v", i, pc.Kept, comms[:pc.Kept], len(kept), kept)
			}
			if b.mode == ModeIncremental && (pc.Kept == 0 || pc.Kept == old.Cover.Len()) {
				t.Fatalf("batch %d: Kept = %d of %d previous communities — the fixture should carry some and replace some", i, pc.Kept, old.Cover.Len())
			}
			if len(comms) != got.Cover.Len() {
				t.Fatalf("batch %d: hook saw %d communities, published %d", i, len(comms), got.Cover.Len())
			}
		}

		gs, ws := *got, *want
		gs.BuiltAt, gs.BuildTime, ws.BuiltAt, ws.BuildTime = time.Time{}, 0, time.Time{}, 0
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("batch %d (%s): hooked worker published\n%+v\nhook-less worker published\n%+v", i, b.mode, gs, ws)
		}
	}
}
