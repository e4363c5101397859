package server

// The seeded-search hot path: a generation-keyed result cache with
// singleflight coalescing and publish-time carry-forward.
//
// The cache key includes the (shard, generation) the search ran over,
// so invalidation on publish is free — entries of a superseded
// generation simply stop being hit and age out of the size-bounded LRU.
// In-process providers (the local worker, the in-process router's shard
// workers) additionally announce each publish, which prunes the shard's
// superseded entries eagerly and carries survivors forward; the
// multi-process router role has no publish hook — its shards rebuild in
// other processes — and relies on the LRU alone.
//
// N concurrent requests for the same (seed, params, generation) run ONE
// underlying search: the first becomes the flight leader, the rest wait
// on its result instead of burning pool workers on identical work.
//
// On fastpath and incremental publishes the previous generation's
// entries are not discarded wholesale: refresh.Snapshot.Dirty says
// which nodes the rebuild may answer differently, so an entry whose
// seed and result avoid the dirty region is re-keyed to the new
// generation (its community is still locally optimal on the new graph —
// the PR 4 dirty-region argument). A ρ-similarity spot check
// (metrics.Rho, the paper's eq. V.1) recomputes a sample of the
// carried entries fresh and drops the whole carry when similarity falls
// below the configured floor, bounding how far heuristic reuse can
// drift from fresh computation.

import (
	"container/list"
	"context"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/metrics"
	"repro/internal/refresh"
	"repro/internal/search"
	"repro/internal/shard"
)

const (
	// defaultSearchCacheSize bounds the cache when Config.SearchCacheSize
	// is 0. At ~100 bytes + two member slices per entry this is a few MiB
	// — sized for hot-seed working sets, not whole graphs.
	defaultSearchCacheSize = 4096
	// defaultSearchCacheRho is the carry-forward spot-check floor when
	// Config.SearchCacheRho is 0: carried entries must be ρ-similar to a
	// fresh recomputation at least this much or the carry is dropped.
	defaultSearchCacheRho = 0.95
	// carrySpotChecks is how many carried entries each publish recomputes
	// fresh for the ρ validation. The checks run on the rebuild
	// goroutine, so they trade a small publish delay for a similarity
	// bound on every carried answer.
	carrySpotChecks = 2
)

// searchKey identifies one cacheable search: the (shard, generation)
// the search resolves to, the global seed, and every effective
// parameter after server-side clamping. RNGSeed is the request's own
// value: explicit seeds key deterministic replays, and 0 groups all
// "server picks a stream" requests for a seed onto one shared result —
// the hot-seed case the cache exists for.
type searchKey struct {
	shard   int
	gen     uint64
	seed    int32
	c       float64
	prob    float64
	steps   int
	maxSize int
	rngSeed int64
}

// searchEntry is one immutable cached result: the rendered response
// (global member ids) plus what carry-forward needs to re-validate it —
// the result in the search graph's own id space, the seed's local id,
// the rng stream actually used, and the effective options. Entries are
// never mutated after insertion; carry-forward inserts copies.
type searchEntry struct {
	resp      SearchResponse
	local     cover.Community // result members, local (shard) id space
	localSeed int32
	c         float64
	rngUsed   int64
	opt       core.Options
}

// flight is one in-progress leader computation; followers wait on done.
type flight struct {
	done chan struct{}
	ent  *searchEntry
	err  error
}

type cacheItem struct {
	key searchKey
	ent *searchEntry
}

// searchCache is the generation-keyed LRU + singleflight table. The
// mutex guards the map/list structure only; the leader's search runs
// outside it, and counters are lock-free atomics so /debug/metrics
// never contends with the hot path.
type searchCache struct {
	capacity int
	rhoFloor float64

	mu      sync.Mutex
	lru     *list.List // front = most recently used
	entries map[searchKey]*list.Element
	flights map[searchKey]*flight

	hits         atomic.Uint64
	misses       atomic.Uint64
	coalesced    atomic.Uint64
	carried      atomic.Uint64
	carryDropped atomic.Uint64
	evicted      atomic.Uint64
	stalePruned  atomic.Uint64
}

// cacheFromConfig sizes the cache from Config.SearchCacheSize and
// SearchCacheRho; nil means caching is disabled.
func cacheFromConfig(cfg Config) *searchCache {
	if cfg.SearchCacheSize < 0 {
		return nil
	}
	size, rho := cfg.SearchCacheSize, cfg.SearchCacheRho
	if size == 0 {
		size = defaultSearchCacheSize
	}
	if rho == 0 {
		rho = defaultSearchCacheRho
	}
	if rho > 1 {
		rho = 1
	}
	return newSearchCache(size, rho)
}

func newSearchCache(capacity int, rhoFloor float64) *searchCache {
	return &searchCache{
		capacity: capacity,
		rhoFloor: rhoFloor,
		lru:      list.New(),
		entries:  make(map[searchKey]*list.Element),
		flights:  make(map[searchKey]*flight),
	}
}

// getOrCompute returns the entry for key — from the cache, from an
// in-flight leader's result, or by running compute as the new leader.
// fresh reports whether this caller ran the search itself (a miss); a
// false return with nil error is a hit or a coalesced wait. When a
// leader fails, its followers retry (possibly becoming leaders) so a
// request only fails on its own terms, not on another request's
// canceled context.
func (sc *searchCache) getOrCompute(ctx context.Context, key searchKey, compute func() (*searchEntry, error)) (ent *searchEntry, fresh bool, err error) {
	var fl *flight
	for fl == nil {
		sc.mu.Lock()
		if el, ok := sc.entries[key]; ok {
			sc.lru.MoveToFront(el)
			ent = el.Value.(*cacheItem).ent
			sc.mu.Unlock()
			sc.hits.Add(1)
			return ent, false, nil
		}
		if lead, ok := sc.flights[key]; ok {
			sc.mu.Unlock()
			sc.coalesced.Add(1)
			select {
			case <-lead.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if lead.err == nil {
				return lead.ent, false, nil
			}
			// The leader failed (its client hung up, its deadline hit the
			// pool wait). That says nothing about this request — go around
			// and try again with our own context.
			continue
		}
		fl = &flight{done: make(chan struct{})}
		sc.flights[key] = fl
		sc.mu.Unlock()
	}
	sc.misses.Add(1)
	ent, err = compute()
	fl.ent, fl.err = ent, err

	sc.mu.Lock()
	delete(sc.flights, key)
	if err == nil {
		sc.insertLocked(key, ent)
	}
	sc.mu.Unlock()
	close(fl.done)
	return ent, true, err
}

// insertLocked adds (or refreshes) an entry and evicts from the LRU
// tail past capacity. Caller holds sc.mu.
func (sc *searchCache) insertLocked(key searchKey, ent *searchEntry) {
	if el, ok := sc.entries[key]; ok {
		el.Value.(*cacheItem).ent = ent
		sc.lru.MoveToFront(el)
		return
	}
	sc.entries[key] = sc.lru.PushFront(&cacheItem{key: key, ent: ent})
	for len(sc.entries) > sc.capacity {
		back := sc.lru.Back()
		sc.lru.Remove(back)
		delete(sc.entries, back.Value.(*cacheItem).key)
		sc.evicted.Add(1)
	}
}

// removeLocked drops the element if it is still present under its key.
func (sc *searchCache) removeLocked(el *list.Element) {
	it := el.Value.(*cacheItem)
	if cur, ok := sc.entries[it.key]; ok && cur == el {
		sc.lru.Remove(el)
		delete(sc.entries, it.key)
	}
}

// survives reports whether an entry's seed and result avoid the
// publish's dirty region — the reuse test: a community disjoint from
// every node the rebuild may answer differently is still locally
// optimal on the new graph.
func survives(e *searchEntry, dirty map[int32]struct{}) bool {
	if _, ok := dirty[e.localSeed]; ok {
		return false
	}
	for _, v := range e.local {
		if _, ok := dirty[v]; ok {
			return false
		}
	}
	return true
}

// carryForward runs at publish time (the rebuild goroutine, via
// OnSwap): prune the shard's superseded entries and — on fastpath and
// incremental publishes — re-key the survivors whose seed and result
// avoid snap.Dirty to the new generation, after the ρ spot check
// validates a sample of them against fresh recomputation. spotCheck
// recomputes one entry's search over the new snapshot; a floor
// violation (or an impossible recompute) drops the entire carry for
// this publish, never serving a result the check could not vouch for.
func (sc *searchCache) carryForward(shardID int, snap *refresh.Snapshot, spotCheck func(searchKey, *searchEntry) (*searchEntry, bool)) {
	carry := snap.Gen > 1 &&
		(snap.RebuildMode == refresh.ModeFastpath || snap.RebuildMode == refresh.ModeIncremental)
	var dirty map[int32]struct{}
	if carry {
		dirty = make(map[int32]struct{}, len(snap.Dirty))
		for _, v := range snap.Dirty {
			dirty[v] = struct{}{}
		}
	}

	sc.mu.Lock()
	var cands []*cacheItem
	var stale []*list.Element
	for el := sc.lru.Front(); el != nil; el = el.Next() {
		it := el.Value.(*cacheItem)
		if it.key.shard != shardID || it.key.gen >= snap.Gen {
			continue
		}
		stale = append(stale, el)
		if carry && it.key.gen == snap.Gen-1 && survives(it.ent, dirty) {
			cands = append(cands, it)
		}
	}
	sc.mu.Unlock()

	// The ρ spot check runs outside the lock (it is a real search). The
	// sample is the carry's most recently used entries — the ones most
	// likely to be served again. Checked entries are replaced with their
	// fresh recomputation: strictly better than carrying, since the work
	// is already done.
	checked := make(map[*cacheItem]*searchEntry, carrySpotChecks)
	for i := 0; i < len(cands) && i < carrySpotChecks; i++ {
		ne, ok := spotCheck(cands[i].key, cands[i].ent)
		if !ok || metrics.Rho(cands[i].ent.local, ne.local) < sc.rhoFloor {
			sc.carryDropped.Add(uint64(len(cands)))
			cands = nil
			break
		}
		checked[cands[i]] = ne
	}

	sc.mu.Lock()
	for _, el := range stale {
		sc.removeLocked(el)
		sc.stalePruned.Add(1)
	}
	for _, it := range cands {
		nk := it.key
		nk.gen = snap.Gen
		ne, ok := checked[it]
		if !ok {
			// Entries are immutable once visible to readers: carry a copy
			// with the generation restamped, sharing the member slices.
			cp := *it.ent
			cp.resp.Generation = snap.Gen
			ne = &cp
		}
		sc.insertLocked(nk, ne)
		sc.carried.Add(1)
	}
	sc.mu.Unlock()
}

// searchCacheStats is the /debug/metrics (and /healthz summary) shape.
type searchCacheStats struct {
	Entries        int     `json:"entries"`
	Capacity       int     `json:"capacity"`
	Hits           uint64  `json:"hits"`
	Misses         uint64  `json:"misses"`
	Coalesced      uint64  `json:"coalesced"`
	CarriedForward uint64  `json:"carried_forward"`
	CarryDropped   uint64  `json:"carry_dropped"`
	Evicted        uint64  `json:"evicted"`
	StalePruned    uint64  `json:"stale_pruned"`
	HitRate        float64 `json:"hit_rate"`
}

func (sc *searchCache) stats() searchCacheStats {
	sc.mu.Lock()
	entries := len(sc.entries)
	sc.mu.Unlock()
	st := searchCacheStats{
		Entries:        entries,
		Capacity:       sc.capacity,
		Hits:           sc.hits.Load(),
		Misses:         sc.misses.Load(),
		Coalesced:      sc.coalesced.Load(),
		CarriedForward: sc.carried.Load(),
		CarryDropped:   sc.carryDropped.Load(),
		Evicted:        sc.evicted.Load(),
		StalePruned:    sc.stalePruned.Load(),
	}
	if lookups := st.Hits + st.Misses + st.Coalesced; lookups > 0 {
		// Coalesced waits share a computed result, so they count as
		// served-without-a-search alongside plain hits.
		st.HitRate = float64(st.Hits+st.Coalesced) / float64(lookups)
	}
	return st
}

// onPublish is the provider-side publish hook (shard.Config.OnSwap and
// the local provider's equivalent): it runs carryForward for the
// publishing shard on that shard's rebuild goroutine.
func (sc *searchCache) onPublish(shardID int, snap *refresh.Snapshot) {
	sc.carryForward(shardID, snap, spotChecker(shardID, snap))
}

// spotChecker returns the carry-forward validator for one publish:
// recompute an entry's search fresh over the new snapshot with the
// entry's own parameters and rng stream, rendered exactly as the
// request path would render it. One search.State is built lazily and
// reused across the publish's checks (they run serially on the rebuild
// goroutine, never through the request pool).
func spotChecker(shardID int, snap *refresh.Snapshot) func(searchKey, *searchEntry) (*searchEntry, bool) {
	var st *search.State
	return func(key searchKey, e *searchEntry) (*searchEntry, bool) {
		g := snap.Graph
		if e.localSeed < 0 || int(e.localSeed) >= g.N() {
			return nil, false
		}
		if st == nil {
			st = search.NewState(g, snap.MaxDegree)
		}
		rng := rand.New(rand.NewSource(e.rngUsed))
		local, fitness := core.FindCommunityWith(g, st, e.localSeed, e.c, rng, e.opt)
		return &searchEntry{
			resp: SearchResponse{
				Seed:    key.seed,
				C:       e.c,
				Size:    len(local),
				Fitness: fitness,
				// Translates through the new snapshot's own table; identity
				// (and no shard tag) when the entry was rendered unsharded.
				Members:    shard.View{Shard: shardID, Snap: snap}.Members(local),
				Shard:      e.resp.Shard,
				Generation: snap.Gen,
			},
			local:     local,
			localSeed: e.localSeed,
			c:         e.c,
			rngUsed:   e.rngUsed,
			opt:       e.opt,
		}, true
	}
}
