package server

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// searchBody posts one /v1/search request and fails the test on any
// non-200.
func searchBody(t testing.TB, url string, req SearchRequest) SearchResponse {
	t.Helper()
	var resp SearchResponse
	if code := postJSON(t, url+"/v1/search", req, &resp); code != http.StatusOK {
		t.Fatalf("search %+v status = %d", req, code)
	}
	return resp
}

// TestSearchCacheHitDeterministic: a repeated request (same seed,
// params, rng stream, generation) is answered from the cache with an
// identical body, and the counters move accordingly.
func TestSearchCacheHitDeterministic(t *testing.T) {
	s, ts := newTestServer(t, Config{OCA: core.Options{Seed: 1, C: 0.5}})
	req := SearchRequest{Seed: 0, RNGSeed: 7}

	first := searchBody(t, ts.URL, req)
	if first.Cached {
		t.Fatal("first search reported cached")
	}
	if first.Generation == 0 {
		t.Fatal("search over a built cover must carry its generation")
	}
	second := searchBody(t, ts.URL, req)
	if !second.Cached {
		t.Fatal("second identical search not served from cache")
	}
	second.Cached = false
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached response diverged:\nfirst  %+v\nsecond %+v", first, second)
	}

	// A different rng stream is a different key.
	other := searchBody(t, ts.URL, SearchRequest{Seed: 0, RNGSeed: 8})
	if other.Cached {
		t.Fatal("different rng_seed must not hit the cache")
	}

	st := s.cache.stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 2 entries", st)
	}

	// The counters are surfaced on /healthz and /debug/metrics (JSON and
	// prometheus).
	var h healthzResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.SearchCache == nil || h.SearchCache.Hits != 1 {
		t.Fatalf("healthz search_cache = %+v", h.SearchCache)
	}
	var m metricsResponse
	getJSON(t, ts.URL+"/debug/metrics", &m)
	if m.SearchCache == nil || m.SearchCache.Misses != 2 {
		t.Fatalf("debug/metrics search_cache = %+v", m.SearchCache)
	}
	resp, err := http.Get(ts.URL + "/debug/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, want := range []string{"ocad_search_cache_hits_total 1", "ocad_search_cache_misses_total 2"} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus body missing %q", want)
		}
	}
}

// TestSearchCacheUnseededGrouping: requests with no rng_seed share one
// cached result per (seed, params, generation) — the hot-seed case.
func TestSearchCacheUnseededGrouping(t *testing.T) {
	_, ts := newTestServer(t, Config{OCA: core.Options{Seed: 1, C: 0.5}})
	first := searchBody(t, ts.URL, SearchRequest{Seed: 3})
	second := searchBody(t, ts.URL, SearchRequest{Seed: 3})
	if !second.Cached {
		t.Fatal("unseeded repeat of a hot seed not served from cache")
	}
	if !reflect.DeepEqual(first.Members, second.Members) {
		t.Fatalf("grouped unseeded results diverged: %v vs %v", first.Members, second.Members)
	}
}

// TestSearchCacheDisabled: a negative SearchCacheSize turns the whole
// hot path off — no cache, no coalescing, no healthz section.
func TestSearchCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{OCA: core.Options{Seed: 1, C: 0.5}, SearchCacheSize: -1})
	if s.cache != nil {
		t.Fatal("cache constructed despite SearchCacheSize < 0")
	}
	req := SearchRequest{Seed: 0, RNGSeed: 7}
	if resp := searchBody(t, ts.URL, req); resp.Cached {
		t.Fatal("cached response from a disabled cache")
	}
	if resp := searchBody(t, ts.URL, req); resp.Cached {
		t.Fatal("cached response from a disabled cache")
	}
	var h healthzResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.SearchCache != nil {
		t.Fatalf("healthz search_cache present on a disabled cache: %+v", h.SearchCache)
	}
}

// TestSearchCacheCoalescingUnit drives getOrCompute directly: with a
// gated compute, every concurrent caller for one key shares a single
// execution.
func TestSearchCacheCoalescingUnit(t *testing.T) {
	sc := newSearchCache(16, 0.95)
	key := searchKey{gen: 1, seed: 4}
	gate := make(chan struct{})
	var computes atomic.Int32

	const callers = 8
	var wg sync.WaitGroup
	results := make([]*searchEntry, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ent, _, err := sc.getOrCompute(context.Background(), key, func() (*searchEntry, error) {
				<-gate
				computes.Add(1)
				return &searchEntry{resp: SearchResponse{Seed: 4, Size: 3}}, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = ent
		}(i)
	}
	// Wait until every non-leader is parked on the flight, then open the
	// gate: exactly one compute may run.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if sc.coalesced.Load() == callers-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d, want %d", sc.coalesced.Load(), callers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i, ent := range results {
		if ent != results[0] {
			t.Fatalf("caller %d got a different entry", i)
		}
	}
	if st := sc.stats(); st.Misses != 1 || st.Coalesced != callers-1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSearchCacheCoalescingLeaderError: a failed leader must not poison
// the key — a follower retries and becomes the new leader.
func TestSearchCacheCoalescingLeaderError(t *testing.T) {
	sc := newSearchCache(16, 0.95)
	key := searchKey{gen: 1, seed: 4}
	boom := errors.New("leader gave up")
	gate := make(chan struct{})
	var calls atomic.Int32

	var wg sync.WaitGroup
	var followerEnt *searchEntry
	wg.Add(1)
	go func() {
		defer wg.Done()
		ent, _, err := sc.getOrCompute(context.Background(), key, func() (*searchEntry, error) {
			calls.Add(1)
			return &searchEntry{resp: SearchResponse{Seed: 4}}, nil
		})
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		followerEnt = ent
	}()

	_, _, err := sc.getOrCompute(context.Background(), key, func() (*searchEntry, error) {
		// Leader: wait for the follower to park, then fail.
		deadline := time.Now().Add(5 * time.Second)
		for sc.coalesced.Load() == 0 {
			if time.Now().After(deadline) {
				t.Error("follower never parked")
				break
			}
			time.Sleep(time.Millisecond)
		}
		close(gate)
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want %v", err, boom)
	}
	<-gate
	wg.Wait()
	if calls.Load() != 1 || followerEnt == nil {
		t.Fatalf("follower retry: calls=%d ent=%v", calls.Load(), followerEnt)
	}
}

// TestSearchCacheStampedeHTTP: N concurrent identical requests over the
// wire run one underlying search between them.
func TestSearchCacheStampedeHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{OCA: core.Options{Seed: 1, C: 0.5}, SearchWorkers: 2})
	const clients = 16
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			searchBody(t, ts.URL, SearchRequest{Seed: 0, RNGSeed: 9})
		}()
	}
	wg.Wait()
	st := s.cache.stats()
	if st.Misses != 1 {
		t.Fatalf("stampede ran %d searches, want 1 (stats %+v)", st.Misses, st)
	}
	if st.Hits+st.Coalesced != clients-1 {
		t.Fatalf("hits+coalesced = %d, want %d (stats %+v)", st.Hits+st.Coalesced, clients-1, st)
	}
}

// TestSearchCacheLRUEviction: the cache never holds more than its
// capacity; the oldest key goes first.
func TestSearchCacheLRUEviction(t *testing.T) {
	sc := newSearchCache(2, 0.95)
	mk := func(seed int32) searchKey { return searchKey{gen: 1, seed: seed} }
	for seed := int32(0); seed < 3; seed++ {
		_, _, err := sc.getOrCompute(context.Background(), mk(seed), func() (*searchEntry, error) {
			return &searchEntry{localSeed: seed}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := sc.stats()
	if st.Entries != 2 || st.Evicted != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 evicted", st)
	}
	// Key 0 was evicted; keys 1 and 2 remain.
	var recomputed bool
	_, fresh, err := sc.getOrCompute(context.Background(), mk(0), func() (*searchEntry, error) {
		recomputed = true
		return &searchEntry{localSeed: 0}, nil
	})
	if err != nil || !fresh || !recomputed {
		t.Fatalf("evicted key not recomputed: fresh=%v recomputed=%v err=%v", fresh, recomputed, err)
	}
}

// cacheTestConfig is the incremental-rebuild server the carry-forward
// tests use: deterministic OCA, tiny debounce, threshold high enough
// that pendant-edge batches rebuild incrementally.
func cacheTestConfig() Config {
	return Config{
		OCA:                  core.Options{Seed: 1, C: 0.5},
		RefreshDebounce:      time.Millisecond,
		IncrementalThreshold: 0.6,
		MaxNodes:             32,
	}
}

// primeIncremental takes a fresh preloaded-cover server past its
// mandatory first full rebuild so subsequent batches may take the
// incremental path.
func primeIncremental(t testing.TB, ts string) {
	t.Helper()
	var er EdgesResponse
	if code := postJSON(t, ts+"/v1/edges", EdgesRequest{Add: [][2]int32{{10, 11}}, Wait: true}, &er); code != http.StatusOK {
		t.Fatalf("priming rebuild status = %d", code)
	}
}

// TestSearchCacheCarryForwardEqualsFresh: an incremental publish whose
// dirty region avoids a cached community carries the entry to the new
// generation — and the carried answer must equal what a cache-disabled
// server computes fresh over the same mutation history.
func TestSearchCacheCarryForwardEqualsFresh(t *testing.T) {
	s, ts := newTestServer(t, cacheTestConfig())
	cfgOff := cacheTestConfig()
	cfgOff.SearchCacheSize = -1
	_, tsOff := newTestServer(t, cfgOff)

	for _, u := range []string{ts.URL, tsOff.URL} {
		primeIncremental(t, u)
	}

	// Cache seed 0's community (clique {0..5}) on the cached server.
	req := SearchRequest{Seed: 0, RNGSeed: 11}
	before := searchBody(t, ts.URL, req)

	// Mutate far away from it: a new pendant edge among uncovered nodes
	// rebuilds incrementally with a dirty region disjoint from clique A.
	var er EdgesResponse
	for _, u := range []string{ts.URL, tsOff.URL} {
		if code := postJSON(t, u+"/v1/edges", EdgesRequest{Add: [][2]int32{{12, 13}}, Wait: true}, &er); code != http.StatusOK {
			t.Fatalf("incremental batch status = %d", code)
		}
	}
	var st statsResponse
	getJSON(t, ts.URL+"/v1/cover/stats", &st)
	if st.RebuildMode != "incremental" {
		t.Fatalf("rebuild_mode = %q, want incremental (test premise)", st.RebuildMode)
	}

	// The carry runs in the worker's publish hook, which fires after the
	// wait:true caller is released: wait for the hook, not for luck.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cs := s.cache.stats(); cs.CarriedForward+cs.CarryDropped > 0 {
			break
		}
	}
	after := searchBody(t, ts.URL, req)
	if !after.Cached {
		t.Fatalf("entry not carried across an untouched incremental publish (stats %+v)", s.cache.stats())
	}
	if after.Generation != before.Generation+1 {
		t.Fatalf("carried generation = %d, want %d", after.Generation, before.Generation+1)
	}
	if cs := s.cache.stats(); cs.CarriedForward == 0 {
		t.Fatalf("carried_forward counter = 0 (stats %+v)", cs)
	}

	// The control server recomputes from scratch over the identical
	// mutation history: deterministic rng stream, so carried == fresh.
	fresh := searchBody(t, tsOff.URL, req)
	if !reflect.DeepEqual(after.Members, fresh.Members) || after.Fitness != fresh.Fitness {
		t.Fatalf("carried result diverged from fresh:\ncarried %v (L=%v)\nfresh   %v (L=%v)",
			after.Members, after.Fitness, fresh.Members, fresh.Fitness)
	}
}

// TestSearchCacheInvalidatingPublish: a publish whose dirty region
// touches the cached community must NOT carry the entry — the next
// request recomputes over the new generation.
func TestSearchCacheInvalidatingPublish(t *testing.T) {
	s, ts := newTestServer(t, cacheTestConfig())
	primeIncremental(t, ts.URL)

	req := SearchRequest{Seed: 0, RNGSeed: 11}
	before := searchBody(t, ts.URL, req)

	// Touch the cached community itself: an edge into clique A dirties
	// its region, so carry-forward must drop the entry.
	var er EdgesResponse
	if code := postJSON(t, ts.URL+"/v1/edges", EdgesRequest{Add: [][2]int32{{0, 14}}, Wait: true}, &er); code != http.StatusOK {
		t.Fatalf("invalidating batch status = %d", code)
	}
	after := searchBody(t, ts.URL, req)
	if after.Cached {
		t.Fatalf("stale entry served across an invalidating publish: %+v", after)
	}
	if after.Generation <= before.Generation {
		t.Fatalf("generation did not advance: %d -> %d", before.Generation, after.Generation)
	}
	if cs := s.cache.stats(); cs.StalePruned == 0 {
		t.Fatalf("stale_pruned counter = 0 (stats %+v)", cs)
	}
}

// TestSearchCacheConcurrentPublishRace is the -race hammer: a mutator
// alternating far and near batches, an identical-seed stampede, and
// random readers, all concurrent. Every 200 response must be coherent
// (seed present in its members, a generation attached); the cache and
// pool bookkeeping must stay race-free.
func TestSearchCacheConcurrentPublishRace(t *testing.T) {
	_, ts := newTestServer(t, cacheTestConfig())
	primeIncremental(t, ts.URL)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Mutator: alternate batches that avoid and touch the hot community.
	wg.Add(1)
	go func() {
		defer wg.Done()
		edges := [][2]int32{{12, 13}, {0, 15}, {13, 14}, {1, 16}}
		for i := 0; i < 12; i++ {
			var er EdgesResponse
			e := edges[i%len(edges)]
			code := postJSON(t, ts.URL+"/v1/edges", EdgesRequest{Add: [][2]int32{e}, Wait: true}, &er)
			if code != http.StatusOK {
				t.Errorf("mutator batch %d status = %d", i, code)
				return
			}
		}
		close(stop)
	}()

	check := func(req SearchRequest) {
		var resp SearchResponse
		code := postJSON(t, ts.URL+"/v1/search", req, &resp)
		switch code {
		case http.StatusOK:
			if resp.Generation == 0 {
				t.Errorf("search response without a generation: %+v", resp)
				return
			}
			found := false
			for _, m := range resp.Members {
				if m == req.Seed {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("seed %d missing from its own community %v (gen %d)", req.Seed, resp.Members, resp.Generation)
			}
		case http.StatusServiceUnavailable:
			// Pool saturation under the hammer is legitimate shedding.
		default:
			t.Errorf("search status = %d", code)
		}
	}

	// Identical-seed stampede: everyone asks for the same key.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				check(SearchRequest{Seed: 0, RNGSeed: 42})
			}
		}()
	}
	// Random readers: distinct keys, exercising eviction and misses.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				check(SearchRequest{Seed: int32(rng.Intn(10))})
			}
		}(i)
	}
	wg.Wait()
}

// TestSearchPoolGenerationStampAcrossLazyPublish: a lazy server's first
// cover build publishes generation 1 over the pointer-identical
// construction graph. Pooled search states checked out before and after
// must be told apart by generation, not graph identity — and responses
// must tag the generation their search actually ran over. Run under
// -race this also hammers the checkout path across the publish.
func TestSearchPoolGenerationStampAcrossLazyPublish(t *testing.T) {
	s, err := New(twoCliqueGraph(t), Config{Lazy: true, OCA: core.Options{Seed: 1, C: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptestNewServer(t, s)

	// Pre-cover searches run over the construction graph: generation 0,
	// never cached (nothing to key on).
	pre := searchBody(t, ts, SearchRequest{Seed: 0, RNGSeed: 3})
	if pre.Generation != 0 || pre.Cached {
		t.Fatalf("pre-cover search = %+v, want generation 0 uncached", pre)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				var resp SearchResponse
				if code := postJSON(t, ts+"/v1/search", SearchRequest{Seed: 0, RNGSeed: 3}, &resp); code != http.StatusOK {
					t.Errorf("search status = %d", code)
					return
				}
			}
		}()
	}
	// Force the lazy build mid-hammer: stats needs the cover.
	var st statsResponse
	if code := getJSON(t, ts+"/v1/cover/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	wg.Wait()

	post := searchBody(t, ts, SearchRequest{Seed: 0, RNGSeed: 3})
	if post.Generation == 0 {
		t.Fatal("post-build search still tagged generation 0")
	}
}

// httptestNewServer mounts a Server on a test listener; split out so
// tests constructing Servers directly (not via newTestServer) share the
// cleanup wiring.
func httptestNewServer(t testing.TB, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestSearchCacheShardedCarry exercises the cache behind the in-process
// sharded provider: repeated sharded searches hit, and per-shard keys
// stay disjoint.
func TestSearchCacheShardedCarry(t *testing.T) {
	g := twoCliqueGraph(t)
	s, err := New(g, Config{OCA: core.Options{Seed: 1, C: 0.5}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	url := httptestNewServer(t, s)

	first := searchBody(t, url, SearchRequest{Seed: 0, RNGSeed: 5})
	if first.Shard == nil {
		t.Fatal("sharded search response without a shard")
	}
	second := searchBody(t, url, SearchRequest{Seed: 0, RNGSeed: 5})
	if !second.Cached {
		t.Fatal("repeated sharded search not cached")
	}
	// A seed on the other shard is a different key.
	other := searchBody(t, url, SearchRequest{Seed: 1, RNGSeed: 5})
	if other.Cached {
		t.Fatal("other shard's first search reported cached")
	}
	if st := s.cache.stats(); st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 misses / 1 hit", st)
	}
}
