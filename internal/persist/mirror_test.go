package persist

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/refresh"
	"repro/internal/transport"
)

// TestMirrorChainEqualsFull is the mirror property: whatever history a
// shard lives through, a mirror that catches up by folding the chain of
// publishes it missed serves exactly what a mirror fed whole snapshots
// serves — graph, cover, index, stats, ownership Meta, table and every
// scalar fact but the clock readings — and what the shard itself
// published. The histories are TestFoldEqualsLive's (shard role:
// incremental, fastpath and full publishes, carry-overs, growth with
// re-shipped table entries, a partition-map change), the mirrors lag a
// random one to three steps, and every seed restarts the shard once
// behind a lagging mirror. A restart is the one way a chain misses
// here — the new instance neither holds the old one's links nor vouches
// for its generation numbering — and the miss must fall back to the
// full stream and be counted.
func TestMirrorChainEqualsFull(t *testing.T) {
	seeds, steps := 12, 96
	if testing.Short() {
		seeds, steps = 2, 20
	}
	publishes, saw := 0, map[string]int{}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := newRun(t, true, int64(100+seed))
			publishes += mirrorHistory(t, r, steps)
			for k, n := range r.saw {
				saw[k] += n
			}
		})
	}
	t.Logf("the mirrors followed %d publishes", publishes)
	if testing.Short() || t.Failed() {
		return
	}
	if publishes < 900 {
		t.Errorf("the histories mirrored %d publishes, want about a thousand", publishes)
	}
	for _, want := range []string{
		refresh.ModeFastpath, refresh.ModeIncremental, refresh.ModeFull,
		"carried", "grown", "reshipped", "map change",
	} {
		if saw[want] == 0 {
			t.Errorf("no mirrored history exercised %q (saw %v)", want, saw)
		}
	}
}

// mirrorHistory plays a seeded shard history under two mirrors and
// returns how many publishes they followed.
func mirrorHistory(t *testing.T, r *run, steps int) int {
	var srv atomic.Pointer[transport.ShardServer]
	worker := r.sw
	srv.Store(transport.NewShardServer(worker, transport.ServerConfig{}))
	serve := func(w http.ResponseWriter, req *http.Request) { srv.Load().Handler().ServeHTTP(w, req) }
	chainTS := httptest.NewServer(http.HandlerFunc(serve))
	defer chainTS.Close()
	// A server that ignores Accept, as every build before chains did.
	fullTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		req.Header.Del("Accept")
		serve(w, req)
	}))
	defer fullTS.Close()
	follow := func(url string) *transport.ReplicaServer {
		rs, err := transport.NewReplica(context.Background(), url, transport.ReplicaConfig{
			Client: transport.ClientConfig{PollInterval: time.Hour}, ConnectTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rs.Close)
		return rs
	}
	chain, full := follow(chainTS.URL), follow(fullTS.URL)

	rng := rand.New(rand.NewSource(r.rng.Int63()))
	mirrored := r.live().Gen
	restarted, restartAt := false, steps/2
	lag := 0
	for i := 0; i < steps; i++ {
		if i == restartAt {
			// Publish past the mirrors, then restart: the links they need
			// are gone with the old worker's ring.
			for r.live().Gen == mirrored {
				r.play(1)
			}
			r.kill()
			r.boot()
			r.play(1)
		} else {
			r.play(1)
		}
		if r.sw != worker {
			worker = r.sw
			srv.Store(transport.NewShardServer(worker, transport.ServerConfig{}))
			restarted = true
		}
		if lag++; lag < 3 && rng.Intn(2) == 0 {
			continue
		}
		lag = 0
		before := chain.MirrorStats()
		for _, rs := range []*transport.ReplicaServer{chain, full} {
			if err := rs.Sync(context.Background()); err != nil {
				t.Fatalf("step %d: sync: %v", i, err)
			}
		}
		head := r.live()
		checkMirrors(t, fmt.Sprintf("step %d, generation %d", i, head.Gen), chain, full, head)
		after := chain.MirrorStats()
		switch {
		case head.Gen == mirrored:
		case after.MirrorFullSyncs > before.MirrorFullSyncs:
			if !restarted {
				t.Fatalf("step %d: the chain mirror took the full stream from %d to %d with no restart in between", i, mirrored, head.Gen)
			}
		case restarted:
			t.Fatalf("step %d: the chain mirror took a chain from %d to %d across a restart", i, mirrored, head.Gen)
		case after.MirrorChainSyncs != before.MirrorChainSyncs+1:
			t.Fatalf("step %d: syncing %d → %d moved the chain mirror by neither kind (%+v → %+v)", i, mirrored, head.Gen, before, after)
		}
		restarted = false
		mirrored = head.Gen
	}
	st := chain.MirrorStats()
	if st.MirrorFullSyncs < 2 {
		t.Errorf("chain mirror counters %+v: the forced miss did not fall back to the full stream", st)
	}
	if st.MirrorChainSyncs == 0 || full.MirrorStats().MirrorChainSyncs != 0 {
		t.Errorf("chain syncs: %d by the chain mirror, %d by the full one", st.MirrorChainSyncs, full.MirrorStats().MirrorChainSyncs)
	}
	return int(mirrored - 1)
}

// checkMirrors holds the chain-fed mirror to the full-fed one, and both
// to the generation the shard published.
func checkMirrors(t *testing.T, what string, chain, full *transport.ReplicaServer, live *refresh.Snapshot) {
	t.Helper()
	cs, ct := chain.Mirror()
	fs, ft := full.Mirror()
	untimed := func(s *refresh.Snapshot) refresh.Snapshot {
		c := *s
		c.BuildTime, c.BuiltAt = 0, time.Time{}
		return c
	}
	if got, want := untimed(cs), untimed(fs); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: chain-fed mirror at %+v differs from full-fed mirror at %+v", what, cs.Info(), fs.Info())
	}
	if !slices.Equal(ct, ft) {
		t.Fatalf("%s: chain-fed table %v, full-fed %v", what, ct, ft)
	}
	li, ci := live.Info(), cs.Info()
	li.BuildMillis, li.BuiltAtUnixMs, ci.BuildMillis, ci.BuiltAtUnixMs = 0, 0, 0, 0
	if ci != li || !reflect.DeepEqual(cs.Graph, live.Graph) || !reflect.DeepEqual(cs.Aux, live.Aux) ||
		!sameCommunities(cs.Cover.Communities, live.Cover.Communities) || cs.Stats != live.Stats {
		t.Fatalf("%s: mirrors serve %+v, the shard published %+v", what, ci, li)
	}
}
