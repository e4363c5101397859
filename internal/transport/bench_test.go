package transport

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lfr"
	"repro/internal/refresh"
	"repro/internal/shard"
)

// BenchmarkMirrorSync is the budget line behind a router mirror's
// resync: shard 0 of 2 of the end-to-end benchmark's input
// (lfr-dense-20k), incremental publishes of 16 edges added inside one
// planted community (the mutate workload's batch), and one op = a mirror
// behind the head catching up over HTTP — server encode, wire, client
// decode and assembly. After one publish: full is the whole generation
// (the server ignores Accept, as a server that cannot answer chains
// does), chain the one-link chain, patched onto the mirror's copy.
// After three more, chain4 is the four-link chain of a mirror four
// publishes behind, assembled from scratch. wire_B/op is what the sync
// read. The fixture is built outside the timer.
func BenchmarkMirrorSync(b *testing.B) {
	bench, err := lfr.Generate(lfr.Params{N: 20000, AvgDeg: 48, MaxDeg: 120, Mu: 0.1,
		MinCom: 150, MaxCom: 400, OverlapNodes: 2000, OverlapMemb: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pc, err := shard.SplitOne(bench.Graph, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	w, err := shard.NewWorker(pc, 2, shard.Config{
		OCA: core.Options{Seed: 1}, Debounce: time.Hour, IncrementalThreshold: 0.25,
	}, bench.Graph.N())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	base := w.Snapshot()
	rng := rand.New(rand.NewSource(1))
	planted := bench.Communities.Communities[0]
	publish := func() {
		prev := w.Snapshot()
		var add [][2]int32
		for len(add) < 16 {
			u, ok1 := w.Lookup(planted[rng.Intn(len(planted))])
			v, ok2 := w.Lookup(planted[rng.Intn(len(planted))])
			if ok1 && ok2 && u != v && !prev.Graph.HasEdge(u, v) {
				add = append(add, [2]int32{u, v})
			}
		}
		if err := w.Apply(context.Background(), add, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := w.Flush(context.Background()); err != nil {
			b.Fatal(err)
		}
		if head := w.Snapshot(); head.Gen != prev.Gen+1 || head.RebuildMode != refresh.ModeIncremental {
			b.Fatalf("publish %d is %s, want generation %d incremental (fixture premise)", head.Gen, head.RebuildMode, prev.Gen+1)
		}
	}
	handler := NewShardServer(w, ServerConfig{}).Handler()

	for _, leg := range []struct {
		name      string
		chain     bool
		publishes int // before the leg, since the mirror's generation
	}{{"full", false, 1}, {"chain", true, 1}, {"chain4", true, 4}} {
		for w.Snapshot().Gen < base.Gen+uint64(leg.publishes) {
			publish()
		}
		head := w.Snapshot()
		b.Run(leg.name, func(b *testing.B) {
			ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if !leg.chain {
					r.Header.Del("Accept")
				}
				handler.ServeHTTP(rw, r)
			}))
			defer ts.Close()
			c := newClient(ts.URL, 0, 2, ClientConfig{})
			if err := c.syncSnapshot(); err != nil { // the handshake's full sync: table and instance
				b.Fatal(err)
			}
			start := *c.mirror.Load()
			start.snap = base
			c.chainSyncs.Store(0)
			c.fullSyncs.Store(0)
			c.mirrorBytes.Store(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := start
				c.mirror.Store(&st)
				if err := c.syncSnapshot(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := c.ResilienceStats()
			if got := st.MirrorChainSyncs > 0; got != leg.chain || c.MirrorGen() != head.Gen {
				b.Fatalf("%s leg: mirror at generation %d, counters %+v", leg.name, c.MirrorGen(), st)
			}
			b.ReportMetric(float64(st.MirrorBytes)/float64(b.N), "wire_B/op")
		})
	}
}
