package shard

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/lfr"
	"repro/internal/refresh"
	"repro/internal/spectral"
)

// verifyDerivedState checks that a shard's published snapshot's derived
// state — inverted index, overlap stats, the whole ownership Meta
// (identity and partition epoch included) — is exactly what a
// from-scratch rebuild over the same (graph, cover) under the worker's
// current partition map produces, and that ghost filtering under that
// map left no community without an owned node. Patched and rebuilt
// generations must be indistinguishable.
func verifyDerivedState(t *testing.T, w *Worker) {
	t.Helper()
	snap := w.Snapshot()
	g, cv := snap.Graph, snap.Cover
	wantIx := index.Build(cv, g.N())
	for v := int32(0); int(v) < g.N(); v++ {
		got, want := snap.Index.Communities(v), wantIx.Communities(v)
		if len(got) != len(want) {
			t.Fatalf("shard %d gen %d node %d: %d memberships, want %d", w.id, snap.Gen, v, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shard %d gen %d node %d: memberships %v, want %v", w.id, snap.Gen, v, got, want)
			}
		}
	}
	if want := cv.Stats(g.N()); snap.Stats != want {
		t.Fatalf("shard %d gen %d (%s): stats %+v, want %+v", w.id, snap.Gen, snap.RebuildMode, snap.Stats, want)
	}
	meta, ok := snap.Aux.(*Meta)
	if !ok {
		t.Fatalf("shard %d gen %d: snapshot has no Meta", w.id, snap.Gen)
	}
	if len(meta.Locals) != g.N() {
		t.Fatalf("shard %d gen %d: Locals has %d entries for %d nodes", w.id, snap.Gen, len(meta.Locals), g.N())
	}
	pm := w.PartitionMap()
	if want := buildMeta(w.id, pm, g, wantIx, meta.Locals); !reflect.DeepEqual(meta, want) {
		got, want := *meta, *want
		got.Locals, want.Locals = nil, nil // shared; keep the message readable
		t.Fatalf("shard %d gen %d (%s): meta %+v, want %+v", w.id, snap.Gen, snap.RebuildMode, got, want)
	}
	for ci, cm := range cv.Communities {
		if !slices.ContainsFunc(cm, func(l int32) bool { return pm.ShardOf(meta.Locals[l]) == w.id }) {
			t.Fatalf("shard %d gen %d (%s): community %d has no node owned under the epoch-%d map", w.id, snap.Gen, snap.RebuildMode, ci, pm.Epoch)
		}
	}
}

// TestShardPatchEquivalence drives a K=3 router with the incremental
// engine enabled through a churn sequence (edge adds, removals, node
// growth) and proves after every generation that the patched per-shard
// index/stats/Meta equal a from-scratch rebuild — the ghost-filtering
// path no longer forces full per-shard index rebuilds, and the patch
// must be invisible to readers. A second leg repeats the churn after a
// live rebalance, restricted to the migrated ids: patched generations
// must decide ownership under the worker's current partition map, not
// the modulo-K base, and carry its epoch.
func TestShardPatchEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-OCA-run equivalence test")
	}
	bench, err := lfr.Generate(lfr.Params{
		N: 120, AvgDeg: 10, MaxDeg: 20, Mu: 0.05,
		MinCom: 15, MaxCom: 30, Seed: 3,
	})
	if err != nil {
		t.Fatalf("lfr.Generate: %v", err)
	}
	g := bench.Graph
	c, err := spectral.C(g, spectral.Options{})
	if err != nil {
		t.Fatalf("spectral.C: %v", err)
	}

	const k = 3
	var (
		modeMu sync.Mutex
		modes  [k]map[string]int // per shard: publishes by rebuild mode
	)
	for s := range modes {
		modes[s] = map[string]int{}
	}
	incremental := func(shard int) int {
		modeMu.Lock()
		defer modeMu.Unlock()
		return modes[shard][refresh.ModeIncremental]
	}
	r, err := NewRouter(g, k, Config{
		OCA:                  core.Options{Seed: 5, C: c},
		Debounce:             time.Millisecond,
		MaxNodes:             g.N() + 16,
		IncrementalThreshold: 0.4,
		OnSwap: func(shard int, snap *refresh.Snapshot) {
			modeMu.Lock()
			modes[shard][snap.RebuildMode]++
			modeMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close()

	rng := rand.New(rand.NewSource(17))
	randomEdge := func(n int) [2]int32 {
		for {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v {
				return [2]int32{u, v}
			}
		}
	}
	apply := func(add, remove [][2]int32) {
		t.Helper()
		_, _, touched, err := r.Enqueue(context.Background(), add, remove)
		if err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if _, err := r.Flush(ctx, touched); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	verifyAll := func() {
		t.Helper()
		for _, b := range r.backends {
			verifyDerivedState(t, b.(*Worker))
		}
	}

	n := g.N()
	var added [][2]int32
	for round := 0; round < 4; round++ {
		batch := [][2]int32{randomEdge(n), randomEdge(n)}
		added = append(added, batch...)
		apply(batch, nil)
		verifyAll()
	}
	// Remove what was added (some removals are no-ops when a pair was
	// added twice — the patch accounting must absorb that too).
	apply(nil, added)
	verifyAll()
	// Node growth: a cross-shard edge between two brand-new global ids
	// materializes owned nodes on two shards and ghosts besides.
	apply([][2]int32{{int32(n), int32(n + 1)}, {int32(n + 1), int32(n + 2)}}, nil)
	verifyAll()

	if incremental(0)+incremental(1)+incremental(2) == 0 {
		t.Fatalf("no shard rebuild took the incremental path (modes: %v) — the patch seam went unexercised", modes)
	}

	// Rebalance leg: class-0 ids below 60 move from shard 0 to shard 1.
	// Donor and receiver republish at the flip; shard 2's owned set is
	// unchanged, so it keeps its pre-flip generation until its next
	// publish — which must then carry the new epoch.
	const donor, receiver, bystander = 0, 1, 2
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	epoch, err := r.Rebalance(ctx, 0, 60, donor, receiver)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	verifyDerivedState(t, r.backends[donor].(*Worker))
	verifyDerivedState(t, r.backends[receiver].(*Worker))
	apply([][2]int32{{2, 5}}, nil) // both endpoints owned by the bystander
	verifyAll()
	for _, b := range r.backends {
		if m := b.View().Meta(); m.Map.Epoch != epoch {
			t.Fatalf("shard %d publishes epoch %d under the epoch-%d map", m.Shard, m.Map.Epoch, epoch)
		}
	}

	// The same churn between migrated ids only: every edge lands on the
	// receiver alone, which the modulo-K base says does not own them.
	migrated := func() [2]int32 {
		for {
			u, v := int32(3*rng.Intn(20)), int32(3*rng.Intn(20))
			if u != v {
				return [2]int32{u, v}
			}
		}
	}
	before := incremental(receiver)
	added = nil
	for round := 0; round < 4; round++ {
		batch := [][2]int32{migrated(), migrated()}
		added = append(added, batch...)
		apply(batch, nil)
		verifyAll()
	}
	apply(nil, added)
	verifyAll()
	// Growth from a migrated node: a new class-0 id at or above 60 is
	// still the donor's, so the edge spans receiver and donor.
	apply([][2]int32{{0, int32(n + 3)}}, nil)
	verifyAll()
	if incremental(receiver) == before {
		t.Fatalf("no receiver publish after the flip took the incremental path (modes: %v) — rebalance × incremental went unexercised", modes)
	}
}

// TestPatchMetaMaxMembershipDrop pins the one patchMeta branch the
// churn above does not reach: when the node holding the owned
// membership maximum loses a community, the maximum is re-scanned
// rather than carried. Node 2 sits in both communities, the batch
// removes one of them, and the patched Meta must equal buildMeta's.
func TestPatchMetaMaxMembershipDrop(t *testing.T) {
	b := graph.NewBuilder(5)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	pm, err := NewPartitionMap(2)
	if err != nil {
		t.Fatal(err)
	}
	locals := []int32{0, 2, 4, 6, 1} // local 4 is a ghost of shard 1's node 1
	meta := func(snap *refresh.Snapshot) *Meta { return buildMeta(0, pm, g, snap.Index, locals) }

	oldCv := cover.NewCover([]cover.Community{{0, 1, 2}, {2, 3, 4}})
	old := refresh.Assemble(g, oldCv, nil, 0.5, 0, nil)
	oldMeta := meta(old)
	if oldMeta.MaxMembershipOwned != 2 {
		t.Fatalf("fixture: owned membership maximum = %d, want 2", oldMeta.MaxMembershipOwned)
	}

	pc := &refresh.PatchContext{Old: old, Kept: 1}
	snap := refresh.Assemble(g, cover.NewCover(oldCv.Communities[:1]), nil, 0.5, 0, pc)
	got, want := patchMeta(oldMeta, pc, snap, locals, ownsLocal(pm, 0, locals)), meta(snap)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("patched meta %+v, want %+v", *got, *want)
	}
	if got.MaxMembershipOwned != 1 {
		t.Fatalf("owned membership maximum = %d after the removal, want 1", got.MaxMembershipOwned)
	}
}

// TestShardPatchFastpath: removing the uncovered fringe edge takes the
// fastpath on both owning shards — the carried community slices stay
// pointer-identical (no OCA, no filtering pass) while the ownership
// metadata still reflects the edge delta.
func TestShardPatchFastpath(t *testing.T) {
	b := graph.NewBuilder(14)
	for i := int32(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			b.AddEdge(i, j)
			b.AddEdge(6+i, 6+j)
		}
	}
	b.AddEdge(12, 13)
	g := b.Build()

	r, err := NewRouter(g, 2, Config{
		OCA:                  core.Options{Seed: 3, C: 0.5},
		Debounce:             time.Millisecond,
		IncrementalThreshold: 0.5,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Close()

	before := make([]*refresh.Snapshot, 2)
	for s, b := range r.backends {
		before[s] = b.(*Worker).Snapshot()
	}

	_, _, touched, err := r.Enqueue(context.Background(), nil, [][2]int32{{12, 13}})
	if err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := r.Flush(ctx, touched); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	for s, b := range r.backends {
		w := b.(*Worker)
		snap := w.Snapshot()
		if snap.Gen != before[s].Gen+1 {
			t.Fatalf("shard %d generation = %d, want %d", s, snap.Gen, before[s].Gen+1)
		}
		if snap.RebuildMode != refresh.ModeFastpath {
			t.Fatalf("shard %d rebuild mode = %q, want %q", s, snap.RebuildMode, refresh.ModeFastpath)
		}
		if snap.Cover != before[s].Cover {
			t.Fatalf("shard %d: fastpath rebuilt the cover, want the carried pointer", s)
		}
		if snap.Index != before[s].Index {
			t.Fatalf("shard %d: fastpath rebuilt the index, want the predecessor's pointer", s)
		}
		verifyDerivedState(t, w)
	}
}
