package shard

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lfr"
	"repro/internal/refresh"
)

// benchRouter builds a router over a fixed LFR benchmark graph.
func benchRouter(b *testing.B, k int) *Router {
	b.Helper()
	bench, err := lfr.Generate(lfr.Params{
		N: 1000, AvgDeg: 16, MaxDeg: 40, Mu: 0.05,
		MinCom: 25, MaxCom: 60, Seed: 3,
	})
	if err != nil {
		b.Fatalf("lfr.Generate: %v", err)
	}
	r, err := NewRouter(bench.Graph, k, Config{OCA: core.Options{Seed: 1, C: 0.5}})
	if err != nil {
		b.Fatalf("NewRouter: %v", err)
	}
	b.Cleanup(r.Close)
	return r
}

// benchmarkBatchLookup measures a 256-id fan-out batch: load views
// once, resolve each id through its owning shard, count memberships —
// the hot loop behind POST /v1/nodes/communities. `make bench-shard`
// compares K=1 (no partitioning, identity-ish tables) against K=4.
func benchmarkBatchLookup(b *testing.B, k int) {
	r := benchRouter(b, k)
	const batch = 256
	ids := make([]int32, batch)
	for i := range ids {
		ids[i] = int32((i * 37) % 1000)
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		views, _ := r.Views()
		for _, v := range ids {
			view := views[int(v)%k]
			local, ok := view.Local(v)
			if !ok {
				b.Fatalf("id %d unresolvable", v)
			}
			total += len(view.Snap.Index.Communities(local))
		}
	}
	if total == 0 {
		b.Fatal("no memberships resolved; benchmark is vacuous")
	}
}

func BenchmarkRouterBatchLookupK1(b *testing.B) { benchmarkBatchLookup(b, 1) }
func BenchmarkRouterBatchLookupK4(b *testing.B) { benchmarkBatchLookup(b, 4) }

// BenchmarkShardPublish measures one shard's publish — router Enqueue
// through the worker's rebuild to the flushed generation — by rebuild
// mode, on shard 0's piece of a 10k-node LFR graph split two ways.
// Every batch names only even ids, so shard 0 alone rebuilds, and every
// timed publish asserts the mode it was chosen to land in. Graph
// generation, the initial covers and the untimed half of each toggle
// sit outside the timer.
func BenchmarkShardPublish(b *testing.B) {
	bench, err := lfr.Generate(lfr.Params{
		N: 10000, AvgDeg: 16, MaxDeg: 40, Mu: 0.05,
		MinCom: 25, MaxCom: 60, Seed: 3,
	})
	if err != nil {
		b.Fatalf("lfr.Generate: %v", err)
	}
	g := bench.Graph
	n := int32(g.N())

	// absent returns count edges {u, u+stride} (u even) missing from g.
	absent := func(count int, stride int32) [][2]int32 {
		var out [][2]int32
		for u := int32(0); len(out) < count && u+stride < n; u += 2 {
			if !g.HasEdge(u, u+stride) {
				out = append(out, [2]int32{u, u + stride})
			}
		}
		if len(out) < count {
			b.Fatalf("only %d of %d absent stride-%d pairs", len(out), count, stride)
		}
		return out
	}
	fringe := [][2]int32{{n, n + 2}} // two new, uncovered, shard-0-owned ids

	for _, bc := range []struct {
		mode  string
		batch [][2]int32
	}{
		// Far above the threshold's share of communities.
		{refresh.ModeFull, absent(600, 5000)},
		// One edge between two covered nodes: two touched communities.
		{refresh.ModeIncremental, absent(1, 5000)},
		// Removing an edge between uncovered nodes touches no community.
		{refresh.ModeFastpath, fringe},
	} {
		b.Run(bc.mode, func(b *testing.B) {
			r, err := NewRouter(g, 2, Config{
				OCA:                  core.Options{Seed: 1, C: 0.5},
				Debounce:             time.Millisecond,
				MaxNodes:             g.N() + 4,
				IncrementalThreshold: 0.1,
			})
			if err != nil {
				b.Fatalf("NewRouter: %v", err)
			}
			defer r.Close()
			// publish applies one batch and returns shard 0's mode for it.
			publish := func(add, remove [][2]int32) string {
				_, _, touched, err := r.Enqueue(context.Background(), add, remove)
				if err != nil {
					b.Fatalf("Enqueue: %v", err)
				}
				if len(touched) != 1 || touched[0] != 0 {
					b.Fatalf("batch touched shards %v, want shard 0 alone", touched)
				}
				if _, err := r.Flush(context.Background(), touched); err != nil {
					b.Fatalf("Flush: %v", err)
				}
				views, _ := r.Views()
				return views[0].Snap.RebuildMode
			}
			timed := func(add, remove [][2]int32) {
				b.StartTimer()
				mode := publish(add, remove)
				b.StopTimer()
				if mode != bc.mode {
					b.Fatalf("publish took the %s path, want %s", mode, bc.mode)
				}
			}
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				switch {
				case bc.mode == refresh.ModeFastpath:
					publish(bc.batch, nil) // (re-)add the fringe edge: incremental
					timed(nil, bc.batch)
				case i%2 == 0:
					timed(bc.batch, nil)
				default:
					timed(nil, bc.batch)
				}
			}
		})
	}
}
