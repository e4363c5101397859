package persist

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wal"
)

// TestShardCrashRestartRoundTrip drives the full shard-server
// durability cycle: a live worker logging through the store, a
// simulated kill (no Seal), and a restart that replays the WAL tail —
// including translation-table growth — back to the pre-kill state.
func TestShardCrashRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := twoCliques()
	const shardID, k, maxNodes = 1, 2, 32
	pc, err := shard.SplitOne(g, k, shardID)
	if err != nil {
		t.Fatal(err)
	}

	s := openStore(t, dir, Options{Shard: shardID, Shards: k, MaxNodes: maxNodes})
	cfg := shard.Config{
		OCA:      core.Options{Seed: 1, C: 0.5},
		Debounce: -1,
		LogBatch: func(b shard.Batch, seq uint64) error {
			return s.LogEdgeBatch(wal.EdgeBatch{Seq: seq, Base: b.Base, NewLocals: b.NewLocals, Add: b.Add, Remove: b.Remove})
		},
	}
	w, err := shard.NewWorker(pc, k, cfg, maxNodes)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Seal the initial generation, then apply a batch that grows the
	// table (a new global node 20 materializes locally).
	snap0 := w.Snapshot()
	if err := s.Seal(snap0, w.Table()[:snap0.Graph.N()]); err != nil {
		t.Fatal(err)
	}
	base := len(w.Table())
	newLocal := int32(base) // local id the growth lands on
	batch := shard.Batch{
		Base:      base,
		NewLocals: []int32{20},
		Add:       [][2]int32{{0, newLocal}},
	}
	if _, _, err := w.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	pre := w.Snapshot()
	if err := s.OnPublish(pre, w.Table()[:pre.Graph.N()]); err != nil {
		t.Fatal(err)
	}
	preTable := w.Table()
	s.Close() // kill -9: no Seal

	// Restart.
	s2 := openStore(t, dir, Options{Shard: shardID, Shards: k, MaxNodes: maxNodes})
	st, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segment == nil || st.Segment.Info.Gen != snap0.Gen {
		t.Fatalf("recovered segment = %+v, want gen %d", st.Segment, snap0.Gen)
	}
	if len(st.Tail) != 1 || !reflect.DeepEqual(st.Tail[0].NewLocals, []int32{20}) || st.Tail[0].Base != base {
		t.Fatalf("tail = %+v, want the growth batch (base %d, new [20])", st.Tail, base)
	}
	got, table, err := ReplayShard(st, shardID, k, cfg, maxNodes)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != pre.Gen || got.Seq != pre.Seq {
		t.Errorf("replayed gen/seq = %d/%d, want %d/%d", got.Gen, got.Seq, pre.Gen, pre.Seq)
	}
	if !reflect.DeepEqual(table, preTable) {
		t.Errorf("replayed table = %v, want %v", table, preTable)
	}
	if !got.Graph.HasEdge(0, newLocal) {
		t.Error("replayed shard graph lost the new edge")
	}
	if !reflect.DeepEqual(got.Cover.Communities, pre.Cover.Communities) {
		t.Errorf("replayed cover differs: %v vs %v", got.Cover.Communities, pre.Cover.Communities)
	}

	// The serving worker rebuilt from the replayed state answers like
	// the pre-kill one.
	w2 := shard.NewWorkerFromSnapshot(got, table, shardID, k, cfg, maxNodes)
	defer w2.Close()
	if l, ok := w2.Lookup(20); !ok || l != newLocal {
		t.Errorf("restored worker Lookup(20) = %d/%v, want %d/true", l, ok, newLocal)
	}
	if w2.Snapshot().Gen != pre.Gen {
		t.Errorf("restored worker generation = %d, want %d", w2.Snapshot().Gen, pre.Gen)
	}

	// The boot goes on as cmd/ocad's does: its seal has nothing to make
	// durable — the log described the whole tail — and the live WAL
	// begins at the recovered generation.
	snap2 := w2.Snapshot()
	if err := s2.Seal(snap2, w2.Table()[:snap2.Graph.N()]); err != nil {
		t.Fatal(err)
	}
	if got := s2.Generations(); !reflect.DeepEqual(got, []uint64{snap0.Gen}) {
		t.Errorf("segments after the boot seal of a fully described tail = %v, want only %d", got, snap0.Gen)
	}
	if err := s2.Begin(snap2.Gen); err != nil {
		t.Fatal(err)
	}

	// Clean shutdown, then a second restart: the serving worker's state
	// is sealed, so the boot finds no WAL tail and has nothing to replay.
	// ReplayShard must then start no worker — it hands back the segment's
	// own assembly (a shard worker would have attached its Meta) — and
	// that carries exactly what the worker path would have returned.
	if err := s2.Seal(snap2, w2.Table()[:snap2.Graph.N()]); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	st3, err := openStore(t, dir, Options{Shard: shardID, Shards: k, MaxNodes: maxNodes}).Load()
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
	if clean.Aux != nil {
		t.Errorf("clean restart went through a shard worker (Aux = %T), want the segment's own snapshot", clean.Aux)
	}
	viaWorker := shard.NewWorkerFromSnapshot(st3.Segment.Snapshot(), st3.Segment.Table, shardID, k, cfg, maxNodes)
	defer viaWorker.Close()
	want := viaWorker.Snapshot()
	if clean.Info() != want.Info() {
		t.Errorf("clean restart info = %+v, worker path %+v", clean.Info(), want.Info())
	}
	if clean.Gen != pre.Gen {
		t.Errorf("clean restart generation = %d, want %d", clean.Gen, pre.Gen)
	}
	if !reflect.DeepEqual(clean.Cover.Communities, want.Cover.Communities) {
		t.Errorf("clean restart cover differs: %v vs %v", clean.Cover.Communities, want.Cover.Communities)
	}
	if !reflect.DeepEqual(cleanTable, viaWorker.Table()) {
		t.Errorf("clean restart table = %v, worker path %v", cleanTable, viaWorker.Table())
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
