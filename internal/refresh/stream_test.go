package refresh

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/lfr"
	"repro/internal/metrics"
)

// publishStream is the end-to-end benchmark's mutation stream: each
// batch adds perBatch intra-community non-edges of one planted
// community and removes the edges the batch streamWindow batches back
// added, so the graph stays within a window of adds of its input.
type publishStream struct {
	rng      *rand.Rand
	g        *graph.Graph
	comms    []cover.Community
	perBatch int
	live     map[[2]int32]bool
	window   [][][2]int32 // the last streamWindow batches' adds, oldest first
}

const streamWindow = 16

func newPublishStream(bench *lfr.Benchmark, seed int64, perBatch int) *publishStream {
	return &publishStream{
		rng:      rand.New(rand.NewSource(seed)),
		g:        bench.Graph,
		comms:    bench.Communities.Communities,
		perBatch: perBatch,
		live:     map[[2]int32]bool{},
	}
}

func (s *publishStream) next() (add, remove [][2]int32) {
	if len(s.window) == streamWindow {
		remove, s.window = s.window[0], s.window[1:]
		for _, e := range remove {
			delete(s.live, e)
		}
	}
	c := s.comms[s.rng.Intn(len(s.comms))]
	for len(add) < s.perBatch {
		u, v := c[s.rng.Intn(len(c))], c[s.rng.Intn(len(c))]
		if u > v {
			u, v = v, u
		}
		e := [2]int32{u, v}
		if u == v || s.g.HasEdge(u, v) || s.live[e] {
			continue
		}
		s.live[e] = true
		add = append(add, e)
	}
	s.window = append(s.window, add)
	return add, remove
}

// TestPublishStreamDrift: hundreds of benchmark-shaped publishes, each
// one a scoped re-run over its dirty region, must leave a cover within
// NMI 0.98 of a cold run on the final graph — incremental refresh may
// not drift away from what OCA finds from scratch.
func TestPublishStreamDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of publishes plus a cold run")
	}
	f := newLadderFixture(t)
	w := New(testSnapshot(t, f.bench.Graph, f.opt), Config{
		OCA: f.opt, Debounce: -1, IncrementalThreshold: 0.25,
	})
	w.Start()
	defer w.Close()
	stream := newPublishStream(f.bench, 29, 16)
	const publishes = 400
	var snap *Snapshot
	incremental := 0
	for i := 0; i < publishes; i++ {
		add, remove := stream.next()
		snap = flushOne(t, w, add, remove)
		if snap.RebuildMode == ModeIncremental {
			incremental++
		}
	}
	if incremental < publishes/2 {
		t.Fatalf("only %d of %d publishes were incremental: the stream no longer exercises scoped runs", incremental, publishes)
	}
	cold, err := core.Run(snap.Graph, f.opt)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	n := snap.Graph.N()
	nmi := metrics.NMI(snap.Cover, cold.Cover, n)
	t.Logf("after %d publishes (%d incremental): NMI vs cold %.4f, vs planted truth %.4f (cold %.4f)",
		publishes, incremental, nmi, metrics.NMI(snap.Cover, f.bench.Communities, n), metrics.NMI(cold.Cover, f.bench.Communities, n))
	if nmi < 0.98 {
		t.Fatalf("NMI(served, cold) = %.4f after %d publishes, want ≥ 0.98", nmi, publishes)
	}
}

// BenchmarkPublishStream is the per-publish budget of a K=1 server: a
// worker over lfr-dense-20k (the end-to-end benchmark's input) fed its
// one-community stream of 16-edge batches. One op is Enqueue + Flush of
// the next batch; ms/publish is the same figure as ns/op, and
// seeds/publish counts the scoped run's local searches. The input and
// the cold cover are built outside the timer.
func BenchmarkPublishStream(b *testing.B) {
	bench, err := lfr.Generate(lfr.Params{N: 20000, AvgDeg: 48, MaxDeg: 120, Mu: 0.1,
		MinCom: 150, MaxCom: 400, OverlapNodes: 2000, OverlapMemb: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	opt := core.Options{Seed: 1}
	w := New(testSnapshot(b, bench.Graph, opt), Config{OCA: opt, Debounce: -1, IncrementalThreshold: 0.25})
	w.Start()
	defer w.Close()
	stream := newPublishStream(bench, 1, 16)
	var seeds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Enqueue(stream.next()); err != nil {
			b.Fatal(err)
		}
		snap, err := w.Flush(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if snap.RebuildMode == ModeIncremental || snap.RebuildMode == ModeFull {
			seeds += snap.Result.SeedsTried
		}
	}
	b.StopTimer()
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/publish")
	b.ReportMetric(float64(seeds)/float64(b.N), "seeds/publish")
}
