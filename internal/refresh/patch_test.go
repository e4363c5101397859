package refresh

import (
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
)

// threeCliques is TestAssembleHook's fixture: three disjoint K6 cliques
// (0–5, 6–11, 12–17) and an uncovered fringe edge {18, 19}.
func threeCliques() *graph.Graph {
	gb := graph.NewBuilder(20)
	for base := int32(0); base < 18; base += 6 {
		for i := base; i < base+6; i++ {
			for j := i + 1; j < base+6; j++ {
				gb.AddEdge(i, j)
			}
		}
	}
	gb.AddEdge(18, 19)
	return gb.Build()
}

// checkPatch holds a publish to the Patch contract: applied to the
// previous generation's cover, the patch yields exactly the published
// cover — same communities under the same ids.
func checkPatch(t *testing.T, old, snap *Snapshot, mode string) {
	t.Helper()
	p := snap.Patch
	if p == nil {
		t.Fatalf("generation %d (%s) carries no patch", snap.Gen, snap.RebuildMode)
	}
	if p.Mode != mode || snap.RebuildMode != mode {
		t.Fatalf("generation %d: patch mode %q, rebuild_mode %q, want %q", snap.Gen, p.Mode, snap.RebuildMode, mode)
	}
	if p.C != snap.C || p.DirtyNodes != snap.DirtyNodes || p.Carried != (snap.Result == nil) {
		t.Errorf("generation %d: patch records c %v dirty %d carried %v, snapshot has c %v dirty %d result %v",
			snap.Gen, p.C, p.DirtyNodes, p.Carried, snap.C, snap.DirtyNodes, snap.Result != nil)
	}
	if !slices.IsSorted(p.Removed) {
		t.Errorf("generation %d: removed ids %v are not ascending", snap.Gen, p.Removed)
	}
	got := p.ApplyCover(old.Cover)
	if !reflect.DeepEqual(got.Communities, snap.Cover.Communities) {
		t.Fatalf("generation %d (%s): patch applied to generation %d gives\n%v\npublished\n%v",
			snap.Gen, mode, old.Gen, got.Communities, snap.Cover.Communities)
	}
	if mode == ModeFastpath && got != old.Cover {
		t.Errorf("generation %d: a fastpath patch must hand back the previous cover itself", snap.Gen)
	}
}

// TestPatchDescribesEveryPublish drives one worker through every way a
// generation gets published — full, incremental, fastpath, a forced
// rebuild — and a second one whose every rebuild fails, and holds each
// publish to checkPatch. The initial generation has no predecessor and
// no patch.
func TestPatchDescribesEveryPublish(t *testing.T) {
	opt := core.Options{Seed: 3, C: 0.5}
	w := New(testSnapshot(t, threeCliques(), opt), Config{OCA: opt, Debounce: time.Millisecond, IncrementalThreshold: 0.5})
	w.Start()
	defer w.Close()
	if w.Snapshot().Patch != nil {
		t.Fatal("the initial generation carries a patch")
	}
	for _, b := range []struct {
		add, remove [][2]int32
		mode        string
	}{
		{add: [][2]int32{{0, 6}}, mode: ModeFull},
		{add: [][2]int32{{12, 18}}, mode: ModeIncremental},
		{remove: [][2]int32{{18, 19}}, mode: ModeFastpath},
		{add: [][2]int32{{13, 18}, {14, 18}}, mode: ModeIncremental},
	} {
		old := w.Snapshot()
		checkPatch(t, old, flushOne(t, w, b.add, b.remove), b.mode)
	}
	old := w.Snapshot()
	if _, err := w.ForceRebuild(); err != nil {
		t.Fatal(err)
	}
	forced, err := w.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if forced.Gen != old.Gen+1 {
		t.Fatalf("forced rebuild published generation %d after %d", forced.Gen, old.Gen)
	}
	checkPatch(t, old, forced, ModeFull)

	// c = 1.5 is outside core.Run's range: every rebuild fails and the
	// new graph publishes with the previous cover carried over.
	failing := New(testSnapshot(t, threeCliques(), opt), Config{OCA: core.Options{Seed: 3, C: 1.5}, Debounce: time.Millisecond})
	failing.Start()
	defer failing.Close()
	old = failing.Snapshot()
	carried := flushOne(t, failing, [][2]int32{{0, 6}}, nil)
	if failing.Status().LastErr == "" || carried.Result != nil {
		t.Fatalf("rebuild under c=1.5 did not fail (last error %q, result %v): test premise", failing.Status().LastErr, carried.Result)
	}
	checkPatch(t, old, carried, ModeFull)
	if !carried.Patch.Carried {
		t.Error("a carried-over generation's patch does not say so")
	}
}

// TestPatchSurvivesAFilteringAssembler: the patch is read off what the
// Assemble hook published, not off what the worker handed it. A hook
// that drops fresh communities (the shard layer's ghost filter) yields
// a difference without them; a hook that ignores the PatchContext and
// filters the whole cover from scratch — dropping a carried community
// the worker counted as kept — yields a replacement. Both apply to the
// previous cover exactly.
func TestPatchSurvivesAFilteringAssembler(t *testing.T) {
	opt := core.Options{Seed: 3, C: 0.5}
	without := func(cv *cover.Cover, from int, node int32) *cover.Cover {
		kept := cv.Communities[:from:from]
		for _, c := range cv.Communities[from:] {
			if !c.Contains(node) {
				kept = append(kept, c)
			}
		}
		return cover.NewCover(kept)
	}
	for name, tc := range map[string]struct {
		assemble    func(g *graph.Graph, cv *cover.Cover, res *core.Result, c float64, d time.Duration, pc *PatchContext) *Snapshot
		replacement bool
	}{
		// Drops the fresh community around the mutated clique (node 12).
		"fresh only": {func(g *graph.Graph, cv *cover.Cover, res *core.Result, c float64, d time.Duration, pc *PatchContext) *Snapshot {
			if pc == nil {
				return Assemble(g, cv, res, c, d, nil)
			}
			return Assemble(g, without(cv, pc.Kept, 12), res, c, d, pc)
		}, false},
		// Drops the carried community of clique 0–5 on every assembly
		// after the first, PatchContext or not.
		"from scratch": {func(g *graph.Graph, cv *cover.Cover, res *core.Result, c float64, d time.Duration, pc *PatchContext) *Snapshot {
			return Assemble(g, without(cv, 0, 0), res, c, d, nil)
		}, true},
	} {
		t.Run(name, func(t *testing.T) {
			w := New(testSnapshot(t, threeCliques(), opt), Config{
				OCA: opt, Debounce: time.Millisecond, IncrementalThreshold: 0.5, Assemble: tc.assemble,
			})
			w.Start()
			defer w.Close()
			old := w.Snapshot()
			snap := flushOne(t, w, [][2]int32{{12, 18}}, nil)
			checkPatch(t, old, snap, ModeIncremental)
			if got := len(snap.Patch.Removed) == old.Cover.Len() && len(snap.Patch.Fresh) == snap.Cover.Len(); got != tc.replacement {
				t.Errorf("patch removes %d of %d and adds %d of %d communities; replacement = %v, want %v",
					len(snap.Patch.Removed), old.Cover.Len(), len(snap.Patch.Fresh), snap.Cover.Len(), got, tc.replacement)
			}
			if snap.Cover.Len() != old.Cover.Len()-1 {
				t.Fatalf("hook published %d communities from %d: the fixture should lose exactly one", snap.Cover.Len(), old.Cover.Len())
			}
			// The next publish patches what this one published.
			next := flushOne(t, w, nil, [][2]int32{{18, 19}})
			checkPatch(t, snap, next, next.RebuildMode)
		})
	}
}
