package persist

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lfr"
	"repro/internal/refresh"
)

// TestSingleCrashRestartRoundTrip is the single-graph twin of
// TestShardCrashRestartRoundTrip: a live refresh worker with the
// store's hooks (LogBatch, OnSwap → OnPublish; the server package's
// localProvider installs the same two) takes eight flushed batches, the
// store is closed with no final seal — a kill — and OpenSingle must
// bring back the pre-kill generation with the identical cover,
// community for community. The batches re-add edges stripped from an
// LFR graph, so every replayed publish is a real incremental rebuild,
// and SegmentEvery is out of reach, so all eight are still in the WAL
// at the kill.
func TestSingleCrashRestartRoundTrip(t *testing.T) {
	const batches, batchSize = 8, 4
	bench, err := lfr.Generate(lfr.Params{
		N: 300, AvgDeg: 10, MaxDeg: 25, Mu: 0.05,
		MinCom: 20, MaxCom: 40, Seed: 7,
	})
	if err != nil {
		t.Fatalf("lfr.Generate: %v", err)
	}
	final := bench.Graph
	var tail [][2]int32
	final.Edges(func(u, v int32) bool {
		tail = append(tail, [2]int32{u, v})
		return true
	})
	rand.New(rand.NewSource(8)).Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	tail = tail[:batches*batchSize]
	d := graph.NewDelta(final)
	for _, e := range tail {
		if err := d.RemoveEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	start := d.Apply()
	opt := core.Options{Seed: 7, C: 0.5}
	res, err := core.Run(start, opt)
	if err != nil {
		t.Fatalf("initial cover: %v", err)
	}

	dir := t.TempDir()
	s := openStore(t, dir, Options{MaxNodes: final.N(), GlobalNodes: start.N(), SegmentEvery: 1 << 32})
	snap := refresh.NewSnapshot(start, res.Cover, res, opt.C, 0)
	snap.Gen = 1
	if err := s.Boot(snap, nil); err != nil {
		t.Fatal(err)
	}
	rcfg := refresh.Config{
		OCA: opt, Debounce: -1, IncrementalThreshold: 1,
		LogBatch: s.LogBatch,
		OnSwap: func(sn *refresh.Snapshot) {
			if err := s.OnPublish(sn, nil); err != nil {
				t.Errorf("publishing generation %d: %v", sn.Gen, err)
			}
		},
	}
	w := refresh.New(snap, rcfg)
	w.Start()
	defer w.Close()
	for i := 0; i < batches; i++ {
		if _, _, err := w.Enqueue(tail[i*batchSize:(i+1)*batchSize], nil); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if _, err := w.Flush(context.Background()); err != nil {
			t.Fatalf("flushing batch %d: %v", i, err)
		}
	}
	pre := w.Snapshot()
	if pre.RebuildMode != refresh.ModeIncremental {
		t.Fatalf("rebuild_mode = %q, want incremental (test premise)", pre.RebuildMode)
	}
	w.Close() // returns once the last publish hook has run
	s.Close() // kill -9: no Seal

	// The live config as is: recovery drops the persistence hooks. The
	// directory records the node count, so the input is not read.
	ds, err := OpenSingle(Options{Dir: dir}, rcfg, bootFrom(nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Store.Close()
	if rs := ds.Store.Stats().Recovered; rs.SegmentGen != 1 || rs.ReplayedBatches != batches || rs.PatchedPublishes != batches || ds.Graph != nil || ds.MaxNodes != final.N() {
		t.Fatalf("recovered %+v, input graph read: %v, ceiling %d; want segment 1 and %d batches and publishes, no input, ceiling %d",
			rs, ds.Graph != nil, ds.MaxNodes, batches, final.N())
	}
	got := ds.Recovered
	if pre.Gen != 1+batches || got.Gen != pre.Gen || got.Seq != pre.Seq {
		t.Errorf("replayed gen/seq = %d/%d, pre-kill %d/%d, want generation %d", got.Gen, got.Seq, pre.Gen, pre.Seq, 1+batches)
	}
	if got.Graph.M() != final.M() || !got.Graph.HasEdge(tail[0][0], tail[0][1]) {
		t.Errorf("replayed graph has %d edges, want %d including the first replayed edge", got.Graph.M(), final.M())
	}
	if !reflect.DeepEqual(got.Cover.Communities, pre.Cover.Communities) {
		t.Errorf("replayed cover differs from the pre-kill cover: %d vs %d communities", got.Cover.Len(), pre.Cover.Len())
	}
}
