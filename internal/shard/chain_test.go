package shard

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/lfr"
	"repro/internal/refresh"
)

// TestPatchFits pins the validation a patch passes before it is applied:
// ids and members in range and strictly ascending.
func TestPatchFits(t *testing.T) {
	for name, tc := range map[string]struct {
		p    refresh.Patch
		fits bool
	}{
		"empty":                {refresh.Patch{}, true},
		"in range":             {refresh.Patch{Removed: []int32{0, 2}, Fresh: []cover.Community{{0, 9}, {3}}}, true},
		"removed id past":      {refresh.Patch{Removed: []int32{3}}, false},
		"removed id negative":  {refresh.Patch{Removed: []int32{-1}}, false},
		"removed twice":        {refresh.Patch{Removed: []int32{1, 1}}, false},
		"removed descending":   {refresh.Patch{Removed: []int32{2, 0}}, false},
		"member past":          {refresh.Patch{Fresh: []cover.Community{{0, 10}}}, false},
		"member negative":      {refresh.Patch{Fresh: []cover.Community{{-4, 1}}}, false},
		"members out of order": {refresh.Patch{Fresh: []cover.Community{{5, 4}}}, false},
	} {
		if got := patchFits(&tc.p, 3, 10) == nil; got != tc.fits {
			t.Errorf("%s: patchFits = %v, want %v", name, got, tc.fits)
		}
	}
}

// TestReconcileTable pins the one table-growth rule every receiver of
// shipped table entries applies.
func TestReconcileTable(t *testing.T) {
	table := []int32{10, 11, 12}
	lookup := func(g int32) (int32, bool) {
		i := slices.Index(table, g)
		return int32(i), i >= 0
	}
	for name, tc := range map[string]struct {
		base      int
		newLocals []int32
		fresh     []int32 // nil with conflict set
		conflict  bool
	}{
		"nothing shipped":        {3, nil, []int32{}, false},
		"growth":                 {3, []int32{13, 14}, []int32{13, 14}, false},
		"re-ship then growth":    {1, []int32{11, 12, 13}, []int32{13}, false},
		"re-ship only":           {0, []int32{10, 11}, []int32{}, false},
		"gap":                    {4, []int32{14}, nil, true},
		"negative base":          {-1, []int32{9}, nil, true},
		"re-ship disagrees":      {2, []int32{99, 13}, nil, true},
		"already mapped":         {3, []int32{11}, nil, true},
		"shipped twice in batch": {3, []int32{13, 13}, nil, true},
	} {
		fresh, err := ReconcileTable(table, lookup, tc.base, tc.newLocals)
		if tc.conflict {
			if !errors.Is(err, ErrTableConflict) {
				t.Errorf("%s: err = %v, want a table conflict", name, err)
			}
			continue
		}
		if err != nil || !slices.Equal(fresh, tc.fresh) {
			t.Errorf("%s: fresh %v, err %v; want %v", name, fresh, err, tc.fresh)
		}
	}
}

// TestFoldStepIsAtomic: a publish that fails validation anywhere — its
// second batch, its patch — leaves the fold where the previous publish
// left it, table included, and the next good publish still folds.
func TestFoldStepIsAtomic(t *testing.T) {
	g := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	cv := cover.NewCover([]cover.Community{{0, 1, 2}, {2, 3}})
	f := NewFold(g, cv, 7, []int32{100, 101, 102, 103}, 6)
	grow := Batch{Base: 4, NewLocals: []int32{104}, Add: [][2]int32{{3, 4}}}
	for name, step := range map[string]struct {
		batches []Batch
		nodes   int
		p       refresh.Patch
	}{
		"bad community id":         {[]Batch{grow}, 0, refresh.Patch{Removed: []int32{2}}},
		"member out of range":      {[]Batch{grow}, 0, refresh.Patch{Fresh: []cover.Community{{0, 5}}}},
		"table conflict":           {[]Batch{grow, {Base: 5, NewLocals: []int32{101}}}, 0, refresh.Patch{}},
		"edge past declared nodes": {[]Batch{grow}, 4, refresh.Patch{}},
		"edge past the cap":        {[]Batch{{Add: [][2]int32{{0, 6}}}}, 0, refresh.Patch{}},
	} {
		if err := f.Step(8, step.batches, step.nodes, &step.p); err == nil {
			t.Fatalf("%s: folded", name)
		}
		if f.Gen() != 7 || f.Cover() != cv || !slices.Equal(f.Table(), []int32{100, 101, 102, 103}) {
			t.Fatalf("%s: the failed step left generation %d, table %v", name, f.Gen(), f.Table())
		}
	}
	if err := f.Step(9, []Batch{grow}, 0, &refresh.Patch{}); err == nil {
		t.Fatal("folded generation 9 onto 7")
	}
	p := &refresh.Patch{Removed: []int32{1}, Fresh: []cover.Community{{2, 3, 4}}}
	if err := f.Step(8, []Batch{grow}, 0, p); err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{0, 1, 2}, {2, 3, 4}}
	got := f.Cover().Communities
	if f.Gen() != 8 || len(got) != 2 || !slices.Equal(got[0], want[0]) || !slices.Equal(got[1], want[1]) ||
		!slices.Equal(f.Table(), []int32{100, 101, 102, 103, 104}) || !f.Graph().HasEdge(3, 4) {
		t.Errorf("folded generation %d: cover %v, table %v", f.Gen(), got, f.Table())
	}
}

func ringLink(gen uint64, fresh int) *Link {
	return &Link{Patch: &refresh.Patch{Fresh: []cover.Community{make(cover.Community, fresh)}}, Gen: gen}
}

// TestRing: the ring hands out contiguous chains it holds whole, drops
// its oldest links once they cost more than a full transfer, and starts
// over when the chain through it breaks.
func TestRing(t *testing.T) {
	var r Ring
	full := 4 * ringLink(0, 10).size()
	for gen := uint64(5); gen <= 8; gen++ {
		r.Push(ringLink(gen, 10), full)
	}
	if links, ok := r.Chain(5, 8); !ok || len(links) != 3 || links[0].Gen != 6 || links[2].Gen != 8 {
		t.Fatalf("Chain(5, 8) = %d links, %v", len(links), ok)
	}
	if links, ok := r.Chain(4, 7); !ok || len(links) != 3 {
		t.Fatalf("Chain(4, 7) = %d links, %v", len(links), ok)
	}
	for _, c := range [][2]uint64{{3, 8}, {5, 9}} {
		if _, ok := r.Chain(c[0], c[1]); ok {
			t.Errorf("Chain(%d, %d) answered beyond the ring", c[0], c[1])
		}
	}
	if links, ok := r.Chain(8, 8); !ok || len(links) != 0 {
		t.Errorf("Chain(8, 8) = %d links, %v; want the empty chain", len(links), ok)
	}
	r.Push(ringLink(9, 10), full) // over the bound: generation 5's link goes
	if _, ok := r.Chain(4, 9); ok {
		t.Error("the ring kept more than a full transfer's worth of links")
	}
	if _, ok := r.Chain(5, 9); !ok {
		t.Error("the ring dropped more than it had to")
	}
	r.Push(ringLink(11, 1), full) // generation 10 never pushed
	if _, ok := r.Chain(8, 11); ok {
		t.Error("a chain across a missing link")
	}
	if _, ok := r.Chain(10, 11); !ok {
		t.Error("the link after the break")
	}
	r.Reset()
	if _, ok := r.Chain(10, 11); ok {
		t.Error("a chain out of a reset ring")
	}
}

// TestWorkerChainAfterFlush: the chain a worker hands out — right after
// Flush, before the head's own publish hook may have run — folds onto
// the generation it starts from into the published one: graph, cover,
// table and facts.
func TestWorkerChainAfterFlush(t *testing.T) {
	bench, err := lfr.Generate(lfr.Params{N: 120, AvgDeg: 10, MaxDeg: 20, Mu: 0.05, MinCom: 15, MaxCom: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := SplitOne(bench.Graph, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(pc, 2, Config{OCA: core.Options{Seed: 5, C: 0.5}, Debounce: time.Hour, IncrementalThreshold: 0.5}, 200)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	start := w.Snapshot()
	if _, ok := w.Chain(start.Gen-1, start); ok {
		t.Fatal("a chain into the initial generation, which no publish produced")
	}
	base := start
	for i := 0; i < 6; i++ {
		table := w.Table()
		next := int32(len(table))
		b := Batch{Base: len(table), NewLocals: []int32{int32(1000 + i)}, Add: [][2]int32{{0, next}, {1, next}}}
		if i%2 == 1 {
			b.Remove = [][2]int32{{0, next - 1}}
		}
		if _, _, err := w.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		head := w.Snapshot()
		links, ok := w.Chain(head.Gen-1, head)
		if !ok || len(links) != 1 {
			t.Fatalf("publish %d: Chain(head-1) = %d links, %v", head.Gen, len(links), ok)
		}
		if i%3 != 2 {
			continue
		}
		// Every third publish, catch up from further back.
		links, ok = w.Chain(base.Gen, head)
		if !ok || len(links) != int(head.Gen-base.Gen) {
			t.Fatalf("Chain(%d) at head %d = %d links, %v", base.Gen, head.Gen, len(links), ok)
		}
		baseTable := base.Aux.(*Meta).Locals
		f := NewFold(base.Graph, base.Cover, base.Gen, baseTable, 200)
		for _, l := range links {
			if err := f.Step(l.Gen, []Batch{l.Batch}, l.Base+len(l.NewLocals), l.Patch); err != nil {
				t.Fatal(err)
			}
		}
		g := f.Graph()
		if !reflect.DeepEqual(f.Cover().Communities, head.Cover.Communities) ||
			!slices.Equal(f.Table(), head.Aux.(*Meta).Locals) || g.N() != head.Graph.N() || g.M() != head.Graph.M() {
			t.Fatalf("chain %d → %d folds to %d nodes %d edges %d communities, head has %d/%d/%d",
				base.Gen, head.Gen, g.N(), g.M(), f.Cover().Len(), head.Graph.N(), head.Graph.M(), head.Cover.Len())
		}
		for v := int32(0); int(v) < g.N(); v++ {
			if !slices.Equal(g.Neighbors(v), head.Graph.Neighbors(v)) {
				t.Fatalf("chain %d → %d: node %d adjacency %v, head %v", base.Gen, head.Gen, v, g.Neighbors(v), head.Graph.Neighbors(v))
			}
		}
		base = head
	}
}
