package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lfr"
	"repro/internal/refresh"
)

// shardedConfig serves the two-clique graph across k shards with a
// pinned c and fast refresh.
func shardedConfig(k int) Config {
	return Config{
		OCA:             core.Options{Seed: 1, C: 0.5},
		Shards:          k,
		RefreshDebounce: time.Millisecond,
		MaxNodes:        64,
	}
}

func newShardedServer(t testing.TB, k int) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(twoCliqueGraph(t), shardedConfig(k))
	if err != nil {
		t.Fatalf("New sharded: %v", err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// mustJSON renders a value for comparison — pointer-tagged fields
// (shard refs) compare by value, not address.
func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

func TestShardedConstructionRules(t *testing.T) {
	cfg := shardedConfig(2)
	cfg.Lazy = true
	if _, err := New(twoCliqueGraph(t), cfg); err == nil {
		t.Error("lazy sharded server constructed, want error")
	}
	if _, err := NewWithCover(twoCliqueGraph(t), fixedCover(), shardedConfig(2)); err == nil {
		t.Error("sharded server with precomputed cover constructed, want error")
	}
}

func TestShardedHealthz(t *testing.T) {
	_, ts := newShardedServer(t, 2)
	var h healthzResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if h.Status != "ok" || !h.CoverReady {
		t.Errorf("healthz basics: %+v", h)
	}
	if len(h.Shards) != 2 {
		t.Fatalf("healthz shards = %d entries, want 2", len(h.Shards))
	}
	// Owned nodes and edges sum to the global dimensions.
	if h.Nodes != 10 || h.Edges != 29 {
		t.Errorf("global dims (%d nodes, %d edges), want (10, 29)", h.Nodes, h.Edges)
	}
	for i, sh := range h.Shards {
		if sh.Shard != i || sh.Generation != 1 || sh.Nodes != 5 {
			t.Errorf("shard entry %d: %+v", i, sh)
		}
		if sh.C != 0.5 {
			t.Errorf("shard %d active c = %g, want pinned 0.5", i, sh.C)
		}
	}
	// The healthz request itself (and this second one) shows up in the
	// per-endpoint summary.
	var again healthzResponse
	getJSON(t, ts.URL+"/healthz", &again)
	if again.Requests == nil || again.Requests.Total == 0 {
		t.Errorf("requests summary missing: %+v", again.Requests)
	} else if rs, ok := again.Requests.Routes["GET /healthz"]; !ok || rs.Count == 0 {
		t.Errorf("healthz route missing from summary: %+v", again.Requests.Routes)
	}
}

func TestShardedStats(t *testing.T) {
	_, ts := newShardedServer(t, 2)
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/cover/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("stats shards = %d entries, want 2", len(st.Shards))
	}
	for _, sh := range st.Shards {
		if sh.C != 0.5 {
			t.Errorf("shard %d c = %g, want 0.5", sh.Shard, sh.C)
		}
		if sh.Communities == 0 {
			t.Errorf("shard %d serves no communities", sh.Shard)
		}
	}
	if st.Nodes != 10 || st.CoveredNodes != 10 || st.Coverage != 1 {
		t.Errorf("aggregate coverage: %+v", st)
	}
	if st.Communities < 2 || st.MinSize == 0 || st.MaxSize < st.MinSize {
		t.Errorf("aggregate size stats: %+v", st)
	}
}

func TestShardedNodeLookup(t *testing.T) {
	_, ts := newShardedServer(t, 2)
	var resp nodeCommunitiesResponse
	if code := getJSON(t, ts.URL+"/v1/node/4/communities?members=1", &resp); code != http.StatusOK {
		t.Fatalf("lookup status = %d", code)
	}
	if resp.Node != 4 || resp.Count < 2 {
		t.Errorf("overlap node 4: %+v (halo should show both cliques)", resp)
	}
	if len(resp.Shards) != 1 || resp.Shards[0].Shard != 0 {
		t.Errorf("lookup shards vector = %v, want owning shard 0", resp.Shards)
	}
	for _, ref := range resp.Communities {
		if ref.Shard == nil || *ref.Shard != 0 {
			t.Errorf("community ref missing owning shard: %+v", ref)
		}
		for _, m := range ref.Members {
			if m < 0 || m >= 10 {
				t.Errorf("member %d is not a global id", m)
			}
		}
	}
	if code := getJSON(t, ts.URL+"/v1/node/99/communities", nil); code != http.StatusNotFound {
		t.Errorf("unknown node status = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/node/bogus/communities", nil); code != http.StatusBadRequest {
		t.Errorf("bad id status = %d, want 400", code)
	}
}

func TestShardedBatchFanOut(t *testing.T) {
	_, ts := newShardedServer(t, 2)
	var got batchCommunitiesResponse
	req := BatchCommunitiesRequest{IDs: []int32{0, 9, 0, -2, 42, 5}, Members: true, Shared: false}
	if code := postJSON(t, ts.URL+"/v1/nodes/communities", req, &got); code != http.StatusOK {
		t.Fatalf("batch status = %d", code)
	}
	if len(got.Results) != 6 || len(got.Shards) != 2 {
		t.Fatalf("batch shape: %d results, %d shard entries", len(got.Results), len(got.Shards))
	}
	// Duplicate ids (cross-request order) answered identically.
	if j0, j2 := mustJSON(t, got.Results[0]), mustJSON(t, got.Results[2]); j0 != j2 {
		t.Errorf("duplicate id answered differently: %s vs %s", j0, j2)
	}
	// Cross-shard ids both answered; invalid ids yield per-id errors.
	if got.Results[1].Count == 0 || got.Results[5].Count == 0 {
		t.Errorf("cross-shard ids unanswered: %+v", got.Results)
	}
	for _, i := range []int{3, 4} {
		if got.Results[i].Error == "" {
			t.Errorf("bad id %d passed: %+v", got.Results[i].Node, got.Results[i])
		}
	}

	// Shared across shards: nodes 4 and 5 sit in both cliques; every
	// shard's halo contains both, so shard-scoped shared refs exist.
	var shared batchCommunitiesResponse
	if code := postJSON(t, ts.URL+"/v1/nodes/communities", BatchCommunitiesRequest{IDs: []int32{4, 5}, Shared: true}, &shared); code != http.StatusOK {
		t.Fatalf("shared batch status = %d", code)
	}
	if shared.Shared != nil {
		t.Errorf("sharded response used the unsharded shared field")
	}
	if shared.SharedRefs == nil || len(*shared.SharedRefs) == 0 {
		t.Errorf("no shared refs for the overlap pair: %+v", shared)
	}
}

func TestShardedSearch(t *testing.T) {
	_, ts := newShardedServer(t, 2)
	var resp SearchResponse
	req := SearchRequest{Seed: 0, RNGSeed: 7}
	if code := postJSON(t, ts.URL+"/v1/search", req, &resp); code != http.StatusOK {
		t.Fatalf("search status = %d", code)
	}
	if resp.Shard == nil || *resp.Shard != 0 || resp.Generation != 1 {
		t.Errorf("search origin: shard=%v gen=%d, want shard 0 gen 1", resp.Shard, resp.Generation)
	}
	if resp.Size < 4 || resp.Size != len(resp.Members) {
		t.Errorf("search result: %+v", resp)
	}
	found := false
	for _, m := range resp.Members {
		if m >= 10 || m < 0 {
			t.Fatalf("member %d not a global id", m)
		}
		if m == 0 {
			found = true
		}
	}
	if !found {
		t.Error("search from seed 0 does not contain the seed after translation")
	}
	if code := postJSON(t, ts.URL+"/v1/search", SearchRequest{Seed: 77}, nil); code != http.StatusNotFound {
		t.Errorf("unknown seed status = %d, want 404", code)
	}
}

func TestShardedEdgesAndGrowth(t *testing.T) {
	_, ts := newShardedServer(t, 2)
	// A cross-shard edge mutates both shards.
	var er EdgesResponse
	if code := postJSON(t, ts.URL+"/v1/edges", EdgesRequest{Add: [][2]int32{{0, 9}}, Wait: true}, &er); code != http.StatusOK {
		t.Fatalf("edges status = %d", code)
	}
	if !er.Applied || len(er.Shards) != 2 {
		t.Fatalf("edges response: %+v", er)
	}
	for _, sg := range er.Shards {
		if sg.Gen < 2 {
			t.Errorf("shard %d generation %d after cross-shard mutation, want ≥ 2", sg.Shard, sg.Gen)
		}
	}

	// Growth: node 12 (even → shard 0) materializes through an edge.
	if code := postJSON(t, ts.URL+"/v1/edges", EdgesRequest{Add: [][2]int32{{9, 12}}, Wait: true}, &er); code != http.StatusOK {
		t.Fatalf("growth edges status = %d", code)
	}
	var h healthzResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Nodes != 11 {
		t.Errorf("healthz nodes = %d after growth, want 11", h.Nodes)
	}
	var lu nodeCommunitiesResponse
	if code := getJSON(t, ts.URL+"/v1/node/12/communities", &lu); code != http.StatusOK {
		t.Errorf("grown node lookup status = %d, want 200", code)
	}
	if code := getJSON(t, ts.URL+"/v1/node/13/communities", nil); code != http.StatusNotFound {
		t.Errorf("never-grown node status = %d, want 404", code)
	}
	// Past the cap: rejected atomically.
	if code := postJSON(t, ts.URL+"/v1/edges", EdgesRequest{Add: [][2]int32{{0, 64}}}, nil); code != http.StatusBadRequest {
		t.Errorf("past-cap growth status = %d, want 400", code)
	}
}

// TestShardedStatsAfterRebalance composes a live rebalance with
// incremental publishes on the public surface: after class-0 ids below
// 60 move from shard 0 to shard 1, wait:true edge additions between the
// migrated nodes must keep /v1/cover/stats exact — nodes and edges
// equal to an oracle graph fed the same additions, covered_nodes equal
// to the number of ids whose lookup returns a community. A shard that
// patches its owned-only tallies under the modulo-K base instead of the
// current partition map stops counting the new edges.
func TestShardedStatsAfterRebalance(t *testing.T) {
	bench, err := lfr.Generate(lfr.Params{
		N: 120, AvgDeg: 10, MaxDeg: 20, Mu: 0.05,
		MinCom: 15, MaxCom: 30, Seed: 3,
	})
	if err != nil {
		t.Fatalf("lfr.Generate: %v", err)
	}
	oracle := bench.Graph
	s, err := New(oracle, Config{
		OCA:                  core.Options{Seed: 5, C: 0.5},
		Shards:               3,
		RefreshDebounce:      time.Millisecond,
		IncrementalThreshold: 0.4,
	})
	if err != nil {
		t.Fatalf("New sharded: %v", err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	checkStats := func(when string) statsResponse {
		t.Helper()
		var st statsResponse
		if code := getJSON(t, ts.URL+"/v1/cover/stats", &st); code != http.StatusOK {
			t.Fatalf("%s: stats status = %d", when, code)
		}
		if st.Nodes != oracle.N() || st.Edges != oracle.M() {
			t.Fatalf("%s: stats report %d nodes / %d edges, the graph has %d / %d", when, st.Nodes, st.Edges, oracle.N(), oracle.M())
		}
		covered := 0
		for id := 0; id < oracle.N(); id++ {
			var lu nodeCommunitiesResponse
			if code := getJSON(t, fmt.Sprintf("%s/v1/node/%d/communities", ts.URL, id), &lu); code != http.StatusOK {
				t.Fatalf("%s: lookup of node %d status = %d", when, id, code)
			}
			if lu.Count > 0 {
				covered++
			}
		}
		if st.CoveredNodes != covered {
			t.Fatalf("%s: stats report %d covered nodes, %d ids look up a community", when, st.CoveredNodes, covered)
		}
		return st
	}
	checkStats("at boot")

	var rr rebalanceResponse
	if code := postJSON(t, ts.URL+"/v1/admin/rebalance", rebalanceRequest{Lo: 0, Hi: 60, From: 0, To: 1}, &rr); code != http.StatusOK || rr.Epoch != 1 {
		t.Fatalf("rebalance status = %d, response %+v", code, rr)
	}
	checkStats("after the flip")

	// New edges between migrated ids (multiples of 3 below 60), one
	// wait:true batch each; all of them land on the receiver alone.
	incremental := 0
	for u := int32(0); u < 60 && incremental < 6; u += 3 {
		v := (u + 27) % 60
		if oracle.HasEdge(u, v) {
			continue
		}
		d := graph.NewDelta(oracle)
		if err := d.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		oracle = d.Apply()
		var er EdgesResponse
		if code := postJSON(t, ts.URL+"/v1/edges", EdgesRequest{Add: [][2]int32{{u, v}}, Wait: true}, &er); code != http.StatusOK || !er.Applied {
			t.Fatalf("edges status = %d, response %+v", code, er)
		}
		st := checkStats(fmt.Sprintf("after adding {%d, %d}", u, v))
		if st.Shards[1].RebuildMode == refresh.ModeIncremental {
			incremental++
		}
	}
	if incremental == 0 {
		t.Fatal("no receiver publish after the flip took the incremental path — rebalance × incremental went unexercised")
	}
}

func TestShardedExport(t *testing.T) {
	_, ts := newShardedServer(t, 2)
	resp, err := http.Get(ts.URL + "/v1/cover/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	meta, comms := readExport(t, resp.Body)
	if len(meta.Shards) != 2 || meta.Nodes != 10 || meta.Edges != 29 {
		t.Errorf("export meta: %+v", meta)
	}
	if len(comms) != meta.Communities {
		t.Fatalf("%d community lines, meta declared %d", len(comms), meta.Communities)
	}
	perShard := map[int]int{}
	for _, c := range comms {
		if c.Shard == nil {
			t.Fatal("community line missing shard tag")
		}
		perShard[*c.Shard]++
		for _, m := range c.Members {
			if m < 0 || m >= 10 {
				t.Fatalf("exported member %d is not a global id", m)
			}
		}
	}
	if perShard[0] == 0 || perShard[1] == 0 {
		t.Errorf("export missing a shard's communities: %v", perShard)
	}
}

func TestDebugMetricsEndpoint(t *testing.T) {
	_, ts := newShardedServer(t, 2)
	// Generate some traffic first.
	getJSON(t, ts.URL+"/healthz", nil)
	getJSON(t, ts.URL+"/v1/node/0/communities", nil)
	getJSON(t, ts.URL+"/v1/node/999/communities", nil)

	var m metricsResponse
	if code := getJSON(t, ts.URL+"/debug/metrics", &m); code != http.StatusOK {
		t.Fatalf("debug/metrics status = %d", code)
	}
	if len(m.BoundsMillis) == 0 {
		t.Error("bounds missing")
	}
	rm, ok := m.Routes["GET /v1/node/{id}/communities"]
	if !ok || rm.Count != 2 {
		t.Fatalf("node route metrics = %+v (ok=%v), want count 2", rm, ok)
	}
	if len(rm.Buckets) != len(m.BoundsMillis)+1 {
		t.Errorf("bucket count %d, want %d", len(rm.Buckets), len(m.BoundsMillis)+1)
	}
	var total uint64
	for _, b := range rm.Buckets {
		total += b
	}
	if total != rm.Count {
		t.Errorf("histogram total %d != count %d", total, rm.Count)
	}
	if hr, ok := m.Routes["GET /healthz"]; !ok || hr.Count == 0 {
		t.Errorf("healthz route metrics missing: %+v", m.Routes)
	}
}

// TestShardedConcurrentTraffic is the acceptance -race suite for the
// fan-out path: mutators toggle same-shard and cross-shard edges while
// batch readers fan out across shards; every batch response's
// (shard, generation) vector must be per-shard monotone per reader and
// no request may fail. Run under -race via `make race`.
func TestShardedConcurrentTraffic(t *testing.T) {
	_, ts := newShardedServer(t, 2)
	client := ts.Client()
	const mutators, readers, reps = 3, 5, 40
	var wg sync.WaitGroup
	errs := make(chan error, (mutators+readers)*reps)

	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				e := [2]int32{int32(m), int32(6 + (i+m)%4)}
				req := EdgesRequest{Add: [][2]int32{e}}
				if i%2 == 1 {
					req = EdgesRequest{Remove: [][2]int32{e}}
				}
				payload, _ := json.Marshal(req)
				resp, err := client.Post(ts.URL+"/v1/edges", "application/json", bytes.NewReader(payload))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					errs <- fmt.Errorf("mutator %d: status %d", m, resp.StatusCode)
				}
			}
		}(m)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			last := map[int]uint64{}
			for i := 0; i < reps; i++ {
				node := int32((rd + i) % 10)
				payload, _ := json.Marshal(BatchCommunitiesRequest{IDs: []int32{node, 4, node, 9}})
				resp, err := client.Post(ts.URL+"/v1/nodes/communities", "application/json", bytes.NewReader(payload))
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader %d: status %d (%s)", rd, resp.StatusCode, body)
					continue
				}
				var got batchCommunitiesResponse
				if err := json.Unmarshal(body, &got); err != nil {
					errs <- fmt.Errorf("reader %d: %v", rd, err)
					continue
				}
				if len(got.Shards) != 2 {
					errs <- fmt.Errorf("reader %d: shard vector %v", rd, got.Shards)
					continue
				}
				for _, sg := range got.Shards {
					if sg.Gen < last[sg.Shard] {
						errs <- fmt.Errorf("reader %d: shard %d generation went backwards: %d after %d",
							rd, sg.Shard, sg.Gen, last[sg.Shard])
					}
					last[sg.Shard] = sg.Gen
				}
				// Duplicate ids in one batch answered identically
				// (per-shard single-view consistency).
				if j0, j2 := mustJSON(t, got.Results[0]), mustJSON(t, got.Results[2]); j0 != j2 {
					errs <- fmt.Errorf("reader %d: duplicate ids answered differently: %s vs %s", rd, j0, j2)
				}
			}
		}(rd)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Drain and verify the vector settles consistently.
	var final EdgesResponse
	if code := postJSON(t, ts.URL+"/v1/edges", EdgesRequest{Add: [][2]int32{{0, 7}}, Wait: true}, &final); code != http.StatusOK {
		t.Fatalf("drain mutation status = %d", code)
	}
	var h healthzResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || h.PendingMutations != 0 {
		t.Errorf("post-drain healthz (code %d): %+v", code, h)
	}
}

// TestSingleGrowthOverHTTP exercises the K=1 growth satellite: with
// MaxNodes configured, /v1/edges extends the node set and lookups reach
// the new nodes after the rebuild.
func TestSingleGrowthOverHTTP(t *testing.T) {
	cfg := liveConfig()
	cfg.MaxNodes = 20
	s, err := New(twoCliqueGraph(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var er EdgesResponse
	if code := postJSON(t, ts.URL+"/v1/edges", EdgesRequest{Add: [][2]int32{{0, 12}}, Wait: true}, &er); code != http.StatusOK {
		t.Fatalf("growth edges status = %d", code)
	}
	if !er.Applied || er.Generation < 2 || er.Shards != nil {
		t.Errorf("growth response: %+v (single path must not quote a shard vector)", er)
	}
	var h healthzResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Nodes != 13 {
		t.Errorf("healthz nodes = %d after growth, want 13", h.Nodes)
	}
	var lu nodeCommunitiesResponse
	if code := getJSON(t, ts.URL+"/v1/node/12/communities", &lu); code != http.StatusOK {
		t.Errorf("grown node lookup status = %d", code)
	}
	if lu.Shards != nil {
		t.Errorf("single-path lookup quoted a shard vector: %+v", lu)
	}
	if code := getJSON(t, ts.URL+"/v1/node/25/communities", nil); code != http.StatusNotFound {
		t.Errorf("past-cap node lookup status = %d, want 404", code)
	}
	if code := postJSON(t, ts.URL+"/v1/edges", EdgesRequest{Add: [][2]int32{{0, 21}}}, nil); code != http.StatusBadRequest {
		t.Errorf("past-cap growth status = %d, want 400", code)
	}
}
