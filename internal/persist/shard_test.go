package persist

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/shard"
)

// bootFrom is a BootNodes over g the way cmd/ocad's bootNodes resolves
// it: a segment that records its global node count answers alone, and
// the ceiling never shrinks.
func bootFrom(g *graph.Graph, maxNodes int) BootNodes {
	return func(seg *Segment) (*graph.Graph, int, int, error) {
		if seg != nil && seg.GlobalNodes > 0 {
			return nil, seg.GlobalNodes, max(maxNodes, seg.MaxNodes), nil
		}
		return g, g.N(), maxNodes, nil
	}
}

// TestShardCrashRestartRoundTrip drives the full shard-server
// durability cycle through OpenShard: a cold boot, a batch that grows
// the translation table, a simulated kill (no final seal), a restart
// that replays the WAL tail back to the pre-kill state, a clean
// shutdown — and then the recovery of a directory with no tail, which
// must hand the serving worker a bare snapshot to assemble once.
func TestShardCrashRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := twoCliques()
	const shardID, k, maxNodes = 1, 2, 32
	opts := Options{Dir: dir, Shard: shardID, Shards: k}
	cfg := shard.Config{OCA: core.Options{Seed: 1, C: 0.5}, Debounce: -1}
	boot := func() *Shard {
		t.Helper()
		ps, err := OpenShard(opts, cfg, bootFrom(g, maxNodes), t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ps.Worker.Close(); ps.Store.Close() })
		return ps
	}

	// The cold boot seals generation 1 and begins the WAL; then global
	// node 20 materializes locally.
	ps := boot()
	snap0 := ps.Worker.Snapshot()
	if got := ps.Store.Generations(); ps.Recovered || !reflect.DeepEqual(got, []uint64{snap0.Gen}) {
		t.Fatalf("cold boot: recovered %v, segments %v; want a cold boot that sealed generation %d", ps.Recovered, got, snap0.Gen)
	}
	base := len(ps.Worker.Table())
	newLocal := int32(base) // local id the growth lands on
	if _, _, err := ps.Worker.ApplyBatch(shard.Batch{Base: base, NewLocals: []int32{20}, Add: [][2]int32{{0, newLocal}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Worker.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	pre, preTable := ps.Worker.Snapshot(), ps.Worker.Table()
	ps.Worker.Close() // returns once the last publish hook has run
	ps.Store.Close()  // kill -9: no final seal

	// Restart: the tail's one publish is read back from the log, so the
	// boot seal has nothing to make durable.
	ps2 := boot()
	rs := ps2.Store.Stats().Recovered
	if !ps2.Recovered || rs.Source != "segment+wal" || rs.SegmentGen != snap0.Gen || rs.ReplayedBatches != 1 || rs.PatchedPublishes != 1 || rs.DerivedPublishes != 0 {
		t.Fatalf("restart recovered %v with %+v; want segment %d plus one batch, folded", ps2.Recovered, rs, snap0.Gen)
	}
	if ps2.GlobalNodes != g.N() || ps2.MaxNodes != maxNodes {
		t.Errorf("restart identity: global %d max %d, want %d/%d", ps2.GlobalNodes, ps2.MaxNodes, g.N(), maxNodes)
	}
	got := ps2.Worker.Snapshot()
	if got.Gen != pre.Gen || got.Seq != pre.Seq {
		t.Errorf("restored gen/seq = %d/%d, want %d/%d", got.Gen, got.Seq, pre.Gen, pre.Seq)
	}
	if table := ps2.Worker.Table(); !reflect.DeepEqual(table, preTable) {
		t.Errorf("restored table = %v, want %v", table, preTable)
	}
	if l, ok := ps2.Worker.Lookup(20); !ok || l != newLocal || !got.Graph.HasEdge(0, newLocal) {
		t.Errorf("restored worker Lookup(20) = %d/%v, edge 0-%d present: %v; want %d/true/true", l, ok, newLocal, got.Graph.HasEdge(0, newLocal), newLocal)
	}
	if !reflect.DeepEqual(got.Cover.Communities, pre.Cover.Communities) {
		t.Errorf("restored cover differs: %v vs %v", got.Cover.Communities, pre.Cover.Communities)
	}
	if segs := ps2.Store.Generations(); !reflect.DeepEqual(segs, []uint64{snap0.Gen}) {
		t.Errorf("segments after the boot seal of a fully described tail = %v, want only %d", segs, snap0.Gen)
	}
	// Clean shutdown seals the served generation.
	if err := ps2.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := ps2.Store.Generations(); !reflect.DeepEqual(segs, []uint64{snap0.Gen, pre.Gen}) {
		t.Errorf("segments after a clean shutdown = %v, want %d and %d", segs, snap0.Gen, pre.Gen)
	}

	// The directory now holds no tail. ReplayShard starts no worker and
	// assembles nothing: the worker that serves the snapshot assembles
	// it, once. That worker answers exactly what one built from the
	// fully assembled segment snapshot answers.
	st3, err := openStore(t, dir, Options{Shard: shardID, Shards: k}).Load()
	if err != nil {
		t.Fatal(err)
	}
	if st3.Segment == nil || len(st3.Tail) != 0 {
		t.Fatalf("clean restart state = segment %v, %d tail batches; want a segment and no tail", st3.Segment, len(st3.Tail))
	}
	clean, cleanTable, err := ReplayShard(st3, shardID, k, cfg, maxNodes)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Index != nil || clean.Aux != nil {
		t.Errorf("clean restart came back assembled (index %v, Aux %T); want the bare segment snapshot", clean.Index != nil, clean.Aux)
	}
	served := shard.NewWorkerFromSnapshot(clean, cleanTable, shardID, k, cfg, maxNodes)
	defer served.Close()
	assembled := shard.NewWorkerFromSnapshot(st3.Segment.Snapshot(), st3.Segment.Table, shardID, k, cfg, maxNodes)
	defer assembled.Close()
	a, b := served.Snapshot(), assembled.Snapshot()
	if a.Info() != b.Info() || a.Gen != pre.Gen || a.Stats != b.Stats || !reflect.DeepEqual(a.Aux, b.Aux) ||
		!reflect.DeepEqual(a.Cover.Communities, b.Cover.Communities) || !reflect.DeepEqual(served.Table(), assembled.Table()) {
		t.Errorf("worker over the bare snapshot serves %+v, over the assembled one %+v", a.Info(), b.Info())
	}
	for _, global := range assembled.Table() {
		la, oka := served.Lookup(global)
		lb, okb := assembled.Lookup(global)
		if la != lb || oka != okb || !reflect.DeepEqual(a.Index.Communities(la), b.Index.Communities(lb)) {
			t.Errorf("global node %d: local %d/%v in %v over the bare snapshot, %d/%v in %v over the assembled one",
				global, la, oka, a.Index.Communities(la), lb, okb, b.Index.Communities(lb))
		}
	}
}

// TestOpenShardRefusesAnotherSplit: a directory whose persisted map is
// 3-way does not boot as one of 2 shards — and the refused boot writes
// nothing, so restarting with the right flags still finds it intact.
func TestOpenShardRefusesAnotherSplit(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Shard: 1, Shards: 2}
	cfg := shard.Config{OCA: core.Options{Seed: 1, C: 0.5}}
	ps, err := OpenShard(opts, cfg, bootFrom(twoCliques(), 32), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := shard.NewPartitionMap(3)
	if err != nil {
		t.Fatal(err)
	}
	if pm, err = pm.Move(0, 4, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := ps.OnMapChange(pm); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	if _, err := OpenShard(opts, cfg, bootFrom(twoCliques(), 32), t.Logf); err == nil || !strings.Contains(err.Error(), "3-way at epoch 1") {
		t.Fatalf("boot under -shards 2 over a 3-way map: %v", err)
	}
	if !reflect.DeepEqual(dirBytes(t, dir), before) {
		t.Error("a refused boot changed the data directory")
	}
}

// TestReplayShardIdentityMismatch refuses to replay another shard's
// files.
func TestReplayShardIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Shard: 0, Shards: 2})
	g := twoCliques()
	pc, err := shard.SplitOne(g, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := shard.NewWorker(pc, 2, shard.Config{OCA: core.Options{Seed: 1, C: 0.5}}, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	snap := w.Snapshot()
	if err := s.Seal(snap, w.Table()[:snap.Graph.N()]); err != nil {
		t.Fatal(err)
	}
	st := &State{Segment: mustLoad(t, s, snap.Gen)}
	if _, _, err := ReplayShard(st, 1, 2, shard.Config{}, 32); err == nil {
		t.Fatal("replayed shard 0's segment as shard 1")
	}
}

func mustLoad(t *testing.T, s *Store, gen uint64) *Segment {
	t.Helper()
	seg, err := s.OpenGeneration(gen)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	return seg
}
