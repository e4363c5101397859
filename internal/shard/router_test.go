package shard

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/refresh"
)

// testRouterConfig pins OCA's worker count with its seed: the cover is
// a function of both (core.Options.Workers), so the suites built on it
// must not depend on the core count they run at.
func testRouterConfig() Config {
	return Config{
		OCA:      core.Options{Seed: 1, C: 0.5, Workers: 2},
		Debounce: time.Millisecond,
	}
}

func newTestRouter(t testing.TB, k int, cfg Config) *Router {
	t.Helper()
	r, err := NewRouter(twoCliques(), k, cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(r.Close)
	return r
}

func flush(t testing.TB, r *Router) GenVector {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	gv, err := r.Flush(ctx, nil)
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return gv
}

// globalCommunities returns a view's communities translated to global
// member sets.
func globalCommunities(v View) [][]int32 {
	out := make([][]int32, v.Snap.Cover.Len())
	for i, c := range v.Snap.Cover.Communities {
		out[i] = v.Members(c)
	}
	return out
}

func TestRouterServesBothCliques(t *testing.T) {
	r := newTestRouter(t, 2, testRouterConfig())
	if r.NumShards() != 2 || !r.Ready() {
		t.Fatalf("NumShards=%d Ready=%v", r.NumShards(), r.Ready())
	}
	// Every node must resolve through its owning shard and belong to at
	// least one community containing one of its clique-mates.
	for v := int32(0); v < 10; v++ {
		view, local, ok, err := r.ViewFor(v)
		if err != nil || !ok {
			t.Fatalf("ViewFor(%d): ok=%v err=%v", v, ok, err)
		}
		if view.Shard != int(v)%2 {
			t.Fatalf("ViewFor(%d) routed to shard %d", v, view.Shard)
		}
		if view.Global(local) != v {
			t.Fatalf("round trip %d → %d → %d", v, local, view.Global(local))
		}
		cis := view.Snap.Index.Communities(local)
		if len(cis) == 0 {
			t.Errorf("node %d has no communities in its owning shard", v)
		}
	}
	// The overlap nodes 4 and 5 should sit in two communities in their
	// owning shards (each shard's halo sees both cliques in full).
	for _, v := range []int32{4, 5} {
		view, local, _, _ := r.ViewFor(v)
		if got := len(view.Snap.Index.Communities(local)); got < 2 {
			t.Errorf("overlap node %d: %d communities in shard %d, want ≥ 2", v, got, view.Shard)
		}
	}
	// Member lists translate to valid global ids.
	views, _ := r.Views()
	for _, view := range views {
		for _, c := range globalCommunities(view) {
			for _, gv := range c {
				if gv < 0 || gv >= 10 {
					t.Fatalf("shard %d community member %d out of global range", view.Shard, gv)
				}
			}
		}
	}
	// Unknown ids resolve to !ok.
	if _, _, ok, _ := r.ViewFor(-1); ok {
		t.Error("ViewFor(-1) ok")
	}
	if _, _, ok, _ := r.ViewFor(99); ok {
		t.Error("ViewFor(99) ok")
	}
}

func TestRouterEnqueueValidation(t *testing.T) {
	r := newTestRouter(t, 2, testRouterConfig())
	cases := []struct {
		name string
		add  [][2]int32
		rm   [][2]int32
	}{
		{"self loop", [][2]int32{{3, 3}}, nil},
		{"negative", [][2]int32{{-1, 2}}, nil},
		{"out of range add (growth off)", [][2]int32{{0, 10}}, nil},
		{"out of range remove", nil, [][2]int32{{0, 99}}},
	}
	for _, tc := range cases {
		if _, queued, _, err := r.Enqueue(context.Background(), tc.add, tc.rm); err == nil || queued != 0 {
			t.Errorf("%s: err=%v queued=%d, want rejection", tc.name, err, queued)
		}
	}
	for _, st := range r.Statuses() {
		if st.Status.Pending != 0 {
			t.Errorf("shard %d: rejected batches left %d pending ops", st.Shard, st.Status.Pending)
		}
	}
}

// TestRouterBacklogFullRejectsWholeBatch fills one shard's backlog and
// then posts a cross-shard batch: admission must be atomic — the
// healthy shard gets nothing either, so a 503 really means "retry the
// whole batch" and the two sides of a cross-shard edge can't diverge.
func TestRouterBacklogFullRejectsWholeBatch(t *testing.T) {
	cfg := testRouterConfig()
	cfg.MaxPending = 2
	cfg.Debounce = time.Hour // nothing drains during the test
	r := newTestRouter(t, 2, cfg)
	// Two same-shard ops fill shard 0 ({0,6} and {2,8} are both even).
	if _, _, _, err := r.Enqueue(context.Background(), [][2]int32{{0, 6}, {2, 8}}, nil); err != nil {
		t.Fatalf("fill shard 0: %v", err)
	}
	// A cross-shard edge needs one slot on each shard; shard 0 has none.
	if _, _, _, err := r.Enqueue(context.Background(), [][2]int32{{0, 9}}, nil); !strings.Contains(fmt.Sprint(err), refresh.ErrBacklogFull.Error()) {
		t.Fatalf("over-full cross-shard enqueue: err = %v, want backlog-full", err)
	}
	sts := r.Statuses()
	if sts[0].Status.Pending != 2 || sts[1].Status.Pending != 0 {
		t.Errorf("pending after rejection = (%d, %d), want (2, 0): nothing from the rejected batch may land",
			sts[0].Status.Pending, sts[1].Status.Pending)
	}
}

// TestRouterLagVisibleInGenVector holds one shard's rebuild back via a
// long debounce: after a same-shard mutation the generation vector
// still shows the old generation for that shard (the lag a client can
// detect), and only the flush advances it — and only for the mutated
// shard.
func TestRouterLagVisibleInGenVector(t *testing.T) {
	cfg := testRouterConfig()
	cfg.Debounce = time.Hour // rebuilds only happen on Flush
	r := newTestRouter(t, 2, cfg)
	before := flushlessGens(r)

	// {0, 6} is a new edge living entirely on shard 0 (both even).
	gv, queued, touched, err := r.Enqueue(context.Background(), [][2]int32{{0, 6}}, nil)
	if err != nil || queued != 1 {
		t.Fatalf("Enqueue: queued=%d err=%v", queued, err)
	}
	for s, e := range gv {
		if e.Gen != before[s] {
			t.Errorf("enqueue-time vector shard %d gen %d, want pre-mutation %d", s, e.Gen, before[s])
		}
	}
	if len(touched) != 1 || touched[0] != 0 {
		t.Fatalf("touched = %v, want only shard 0", touched)
	}
	if st := r.Statuses()[0]; st.Status.Pending != 1 {
		t.Fatalf("shard 0 pending = %d, want 1 (lagging)", st.Status.Pending)
	}

	after := flush(t, r)
	if after[0].Gen != before[0]+1 {
		t.Errorf("shard 0 gen %d after flush, want %d", after[0].Gen, before[0]+1)
	}
	if after[1].Gen != before[1] {
		t.Errorf("shard 1 gen advanced to %d without mutations", after[1].Gen)
	}
}

func flushlessGens(r *Router) map[int]uint64 {
	out := make(map[int]uint64)
	views, _ := r.Views()
	for _, v := range views {
		out[v.Shard] = v.Snap.Gen
	}
	return out
}

// TestRouterOneShardFailingOthersAdvance injects a failing OCA (invalid
// c) into shard 1's rebuild worker: its rebuilds publish the new graph
// with the previous cover carried over and a recorded error, while
// shard 0 keeps advancing with fresh covers. Reads never fail.
func TestRouterOneShardFailingOthersAdvance(t *testing.T) {
	cfg := testRouterConfig()
	cfg.workerOCA = func(shard int, opt core.Options) core.Options {
		if shard == 1 {
			opt.C = 2 // out of range: every core.Run fails
		}
		return opt
	}
	r := newTestRouter(t, 2, cfg)

	// A cross-shard edge mutates both shards.
	if _, _, _, err := r.Enqueue(context.Background(), [][2]int32{{0, 9}}, nil); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	gv := flush(t, r)
	if gv[0].Gen != 2 || gv[1].Gen != 2 {
		t.Fatalf("generations %v, want both bumped to 2", gv)
	}
	sts := r.Statuses()
	if sts[0].Status.LastErr != "" {
		t.Errorf("healthy shard 0 reports error %q", sts[0].Status.LastErr)
	}
	if !strings.Contains(sts[1].Status.LastErr, "out of range") {
		t.Errorf("failing shard 1 LastErr = %q, want a c-range error", sts[1].Status.LastErr)
	}
	// Shard 1 still serves a cover (carried over) and its graph has the
	// new edge; shard 0's cover reflects a fresh run.
	views, _ := r.Views()
	if views[1].Snap.Cover.Len() == 0 {
		t.Error("failing shard dropped its carried-over cover")
	}
	l0, ok0 := views[1].Local(9)
	l9, ok9 := views[1].Local(0)
	if !ok0 || !ok9 || !views[1].Snap.Graph.HasEdge(l0, l9) {
		t.Error("failing shard's graph is missing the applied edge")
	}
}

// TestRouterGrowth adds an edge naming a brand-new global node: the
// owning shard materializes it as an owned node, the other endpoint's
// shard gains it as a ghost, and lookups resolve after the flush.
func TestRouterGrowth(t *testing.T) {
	cfg := testRouterConfig()
	cfg.MaxNodes = 64
	r := newTestRouter(t, 2, cfg)

	if _, _, ok, _ := r.ViewFor(12); ok {
		t.Fatal("unmaterialized node 12 resolved before growth")
	}
	// 12 is even → owned by shard 0; endpoint 9 is odd → shard 1 gains
	// 12 as a ghost.
	if _, queued, _, err := r.Enqueue(context.Background(), [][2]int32{{9, 12}}, nil); err != nil || queued != 1 {
		t.Fatalf("growth enqueue: queued=%d err=%v", queued, err)
	}
	flush(t, r)

	view, local, ok, _ := r.ViewFor(12)
	if !ok || view.Shard != 0 {
		t.Fatalf("ViewFor(12) after growth: ok=%v shard=%d", ok, view.Shard)
	}
	if g9, ok9 := view.Local(9); !ok9 || !view.Snap.Graph.HasEdge(local, g9) {
		t.Errorf("shard 0 missing grown edge {12, 9}")
	}
	v1, l12, ok, _ := r.ViewFor(9)
	if !ok {
		t.Fatal("ViewFor(9) broken after growth")
	}
	if g12, okg := v1.Local(12); !okg {
		t.Error("shard 1 did not materialize ghost 12")
	} else if !v1.Snap.Graph.HasEdge(l12, g12) {
		t.Error("shard 1 missing ghost edge {9, 12}")
	}
	if r.NodeBound() != 13 {
		t.Errorf("NodeBound = %d, want 13", r.NodeBound())
	}
	// Beyond MaxNodes is still rejected.
	if _, _, _, err := r.Enqueue(context.Background(), [][2]int32{{0, 64}}, nil); err == nil {
		t.Error("enqueue past MaxNodes succeeded")
	}
}

// TestRouterConcurrentMutatorsAndFanOutReaders is the router-level race
// suite: mutators hammer same-shard and cross-shard edges while readers
// fan out over all shards asserting per-shard generation monotonicity
// and internal consistency of every view. Run under -race via `make
// race`.
func TestRouterConcurrentMutatorsAndFanOutReaders(t *testing.T) {
	cfg := testRouterConfig()
	cfg.Debounce = 100 * time.Microsecond
	r := newTestRouter(t, 2, cfg)
	const mutators, readers, reps = 3, 6, 60
	var wg sync.WaitGroup
	errs := make(chan error, (mutators+readers)*2)

	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				// Alternate cross-shard and same-shard toggles.
				e := [2]int32{int32(m % 4), int32(6 + (i+m)%4)}
				var err error
				if i%2 == 0 {
					_, _, _, err = r.Enqueue(context.Background(), [][2]int32{e}, nil)
				} else {
					_, _, _, err = r.Enqueue(context.Background(), nil, [][2]int32{e})
				}
				if err != nil {
					errs <- fmt.Errorf("mutator %d: %v", m, err)
					return
				}
			}
		}(m)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			last := make([]uint64, r.NumShards())
			for i := 0; i < reps; i++ {
				views, _ := r.Views()
				for s, view := range views {
					if view.Snap.Gen < last[s] {
						errs <- fmt.Errorf("reader %d: shard %d generation went backwards: %d after %d", rd, s, view.Snap.Gen, last[s])
						return
					}
					last[s] = view.Snap.Gen
					meta := view.Meta()
					if meta == nil || len(meta.Locals) != view.Snap.Graph.N() {
						errs <- fmt.Errorf("reader %d: shard %d meta/locals inconsistent with graph", rd, s)
						return
					}
					if view.Snap.Index.N() != view.Snap.Graph.N() {
						errs <- fmt.Errorf("reader %d: shard %d index over %d nodes, graph has %d", rd, s, view.Snap.Index.N(), view.Snap.Graph.N())
					}
					// Spot-check a lookup against the view's own cover.
					if local, ok := view.Local(int32(4 + s)); ok {
						for _, ci := range view.Snap.Index.Communities(local) {
							if !view.Snap.Cover.Communities[ci].Contains(local) {
								errs <- fmt.Errorf("reader %d: shard %d index/cover disagree", rd, s)
								return
							}
						}
					}
				}
			}
		}(rd)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	gv := flush(t, r)
	for s, st := range r.Statuses() {
		if st.Status.Pending != 0 || gv[s].Gen != st.Status.Gen {
			t.Errorf("post-drain shard %d: %+v vs vector %v", s, st.Status, gv)
		}
	}
}

func TestRouterCloseRejectsMutationsKeepsReads(t *testing.T) {
	r := newTestRouter(t, 2, testRouterConfig())
	r.Close()
	if _, _, _, err := r.Enqueue(context.Background(), [][2]int32{{0, 9}}, nil); err == nil {
		t.Error("Enqueue after Close succeeded")
	} else if !strings.Contains(err.Error(), refresh.ErrClosed.Error()) && err != refresh.ErrClosed {
		t.Errorf("Enqueue after Close: %v, want ErrClosed", err)
	}
	views, err := r.Views()
	if err != nil || len(views) != 2 || views[0].Snap == nil {
		t.Errorf("reads broken after Close: %v", err)
	}
	r.Close() // idempotent
}
