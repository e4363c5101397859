package main

import (
	"sync"

	"repro/internal/xrand"
	"syscall"
	"time"
)

// The traced pass's live half: deltas of counters the daemons already
// export, taken around the measured phase. Nothing here adds a counter
// to the program.

const lookupRoute = "GET /v1/node/{id}/communities"

// debugMetrics is the slice of /debug/metrics the harness reads.
type debugMetrics struct {
	Routes map[string]struct {
		Count      uint64  `json:"count"`
		MeanMillis float64 `json:"mean_millis"`
	} `json:"routes"`
	Refresh []struct {
		Generation  uint64 `json:"generation"`
		RebuildMode string `json:"rebuild_mode"`
		DirtyNodes  int    `json:"dirty_nodes"`
	} `json:"refresh"`
	SearchCache struct {
		Hits           uint64 `json:"hits"`
		Misses         uint64 `json:"misses"`
		Coalesced      uint64 `json:"coalesced"`
		CarriedForward uint64 `json:"carried_forward"`
		CarryDropped   uint64 `json:"carry_dropped"`
		Evicted        uint64 `json:"evicted"`
		StalePruned    uint64 `json:"stale_pruned"`
	} `json:"search_cache"`
	Resilience []struct {
		BreakerTrips uint64 `json:"breaker_trips"`
		Retries      uint64 `json:"retries"`
	} `json:"resilience"`
}

// counters is one scrape of everything the live metrics difference.
type counters struct {
	dm           debugMetrics
	deadlineShed uint64
	genSum       uint64 // generations summed over the data-bearing processes
	cpu, front   float64
	self         float64
}

func (r *run) scrape() (counters, error) {
	var c counters
	if err := r.c.getJSON("http://"+r.c.front.addr+"/debug/metrics", &c.dm); err != nil {
		return c, err
	}
	if r.c.single {
		h, err := r.c.frontHealth()
		if err != nil {
			return c, err
		}
		c.genSum = h.Generation
	}
	for _, p := range r.c.shards {
		h, err := r.c.shardHealth(p)
		if err != nil {
			return c, err
		}
		c.deadlineShed += h.DeadlineShed
		c.genSum += h.Snapshot.Generation
	}
	var err error
	if c.cpu, c.front, _, err = r.c.resources(); err != nil {
		return c, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	c.self = tv(ru.Utime) + tv(ru.Stime)
	return c, nil
}

// publish is one generation a data-bearing process published, as its
// health endpoint described it.
type publish struct {
	buildMs float64
	mode    string
	dirty   int
}

// refreshSampler polls the data-bearing processes' health during the
// measured phase and keeps one record per published generation.
type refreshSampler struct {
	c    *cluster
	quit chan struct{}
	wg   sync.WaitGroup
	seen map[[2]uint64]publish // (process index, generation)
}

func startRefreshSampler(c *cluster) *refreshSampler {
	s := &refreshSampler{c: c, quit: make(chan struct{}), seen: make(map[[2]uint64]publish)}
	s.poll() // the generations current at start: the initial builds
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				s.poll()
			}
		}
	}()
	return s
}

// poll records the current generation of every data-bearing process.
// Errors are skipped: a poll is a sample, the next one retries.
func (s *refreshSampler) poll() {
	if s.c.single {
		var dm debugMetrics
		h, err := s.c.frontHealth()
		if err != nil || s.c.getJSON("http://"+s.c.front.addr+"/debug/metrics", &dm) != nil || len(dm.Refresh) == 0 {
			return
		}
		if rf := dm.Refresh[0]; rf.Generation == h.Generation {
			s.seen[[2]uint64{0, h.Generation}] = publish{buildMs: float64(h.LastBuild), mode: rf.RebuildMode, dirty: rf.DirtyNodes}
		}
		return
	}
	for i, p := range s.c.shards {
		h, err := s.c.shardHealth(p)
		if err != nil {
			continue
		}
		s.seen[[2]uint64{uint64(i), h.Snapshot.Generation}] = publish{
			buildMs: float64(h.Status.Status.LastBuild) / 1e6,
			mode:    h.Snapshot.RebuildMode,
			dirty:   h.Snapshot.DirtyNodes,
		}
	}
}

func (s *refreshSampler) stop() {
	close(s.quit)
	s.wg.Wait()
}

// liveScrape brackets the measured phase of a traced run.
type liveScrape struct {
	r       *run
	before  counters
	sampler *refreshSampler
}

func (r *run) beginLiveScrape() (*liveScrape, error) {
	before, err := r.scrape()
	if err != nil {
		return nil, err
	}
	return &liveScrape{r: r, before: before, sampler: startRefreshSampler(r.c)}, nil
}

// finish takes the closing scrape, runs the unloaded reference lap and
// fills in the live per-layer metrics.
func (ls *liveScrape) finish(clients []*clientRun) error {
	r, m := ls.r, ls.r.res.metrics
	ls.sampler.stop()
	after, err := r.scrape()
	if err != nil {
		return err
	}
	b, a := ls.before.dm, after.dm

	sc := func(get func(d debugMetrics) uint64) float64 { return float64(get(a) - get(b)) }
	hits := sc(func(d debugMetrics) uint64 { return d.SearchCache.Hits })
	misses := sc(func(d debugMetrics) uint64 { return d.SearchCache.Misses })
	m["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["server.cache_evicted"] = sc(func(d debugMetrics) uint64 { return d.SearchCache.Evicted })
	m["server.cache_coalesced"] = sc(func(d debugMetrics) uint64 { return d.SearchCache.Coalesced })
	m["server.cache_carried_forward"] = sc(func(d debugMetrics) uint64 { return d.SearchCache.CarriedForward })
	m["server.cache_carry_dropped"] = sc(func(d debugMetrics) uint64 { return d.SearchCache.CarryDropped })
	m["server.cache_stale_pruned"] = sc(func(d debugMetrics) uint64 { return d.SearchCache.StalePruned })
	m["transport.retries"] = sc(func(d debugMetrics) (n uint64) {
		for _, rs := range d.Resilience {
			n += rs.Retries
		}
		return n
	})
	m["transport.breaker_trips"] = sc(func(d debugMetrics) (n uint64) {
		for _, rs := range d.Resilience {
			n += rs.BreakerTrips
		}
		return n
	})
	m["transport.deadline_shed"] = float64(after.deadlineShed - ls.before.deadlineShed)

	// Rebuilds: every generation first seen during the phase. With none
	// (read-only workloads) the build time quoted is the initial build's.
	rebuilds := float64(after.genSum - ls.before.genSum)
	var builds, dirty []float64
	modes := map[string]float64{}
	var initial []float64
	startGens := map[uint64]uint64{}
	for k := range ls.sampler.seen {
		if g, ok := startGens[k[0]]; !ok || k[1] < g {
			startGens[k[0]] = k[1]
		}
	}
	for k, p := range ls.sampler.seen {
		if k[1] == startGens[k[0]] {
			initial = append(initial, p.buildMs)
			continue
		}
		builds = append(builds, p.buildMs)
		dirty = append(dirty, float64(p.dirty))
		modes[p.mode]++
	}
	if len(builds) == 0 {
		builds = initial
	}
	m["refresh.build_ms_p50"] = median(builds)
	seen := modes["incremental"] + modes["full"] + modes["fastpath"]
	m["refresh.mode_share_incremental"] = ratio(modes["incremental"], seen)
	m["refresh.mode_share_full"] = ratio(modes["full"], seen)
	m["refresh.mode_share_fastpath"] = ratio(modes["fastpath"], seen)
	m["refresh.dirty_nodes_mean"] = mean(dirty)
	m["refresh.rebuilds"] = rebuilds
	batches := 0
	var fastHalves [2]latencies
	for _, cr := range clients {
		batches += cr.lat[clMutate].n() + cr.lat[clAccept].n()
		fastHalves[0].merge(&cr.fastHalf[0])
		fastHalves[1].merge(&cr.fastHalf[1])
	}
	m["refresh.batches_per_rebuild"] = ratio(float64(batches), rebuilds)

	cpu := after.cpu - ls.before.cpu
	m["ocad.cpu_s"] = cpu
	m["ocad.front_cpu_share"] = ratio(after.front-ls.before.front, cpu)
	m["bench.client_cpu_s"] = after.self - ls.before.self
	m["trace.overhead_ratio"] = ratio(fastHalves[1].p(50), fastHalves[0].p(50))

	return ls.referenceLap(clients[0])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// referenceLap issues single lookups alone on one connection after the
// measured phase and sets the client round trip beside the daemon's own
// route mean over the same requests; the difference is what net/http
// and loopback cost on an idle system.
func (ls *liveScrape) referenceLap(cr *clientRun) error {
	const lapOps = 2000
	r := ls.r
	routeTotals := func() (count uint64, totalMs float64, err error) {
		var dm debugMetrics
		if err := r.c.getJSON("http://"+r.c.front.addr+"/debug/metrics", &dm); err != nil {
			return 0, 0, err
		}
		rt := dm.Routes[lookupRoute]
		return rt.Count, rt.MeanMillis * float64(rt.Count), nil
	}
	c0, t0, err := routeTotals()
	if err != nil {
		return err
	}
	gen := &lookupGen{rng: xrand.New(r.cfg.seed, streamSample), n: r.in.n()}
	var lap latencies
	for i := 0; i < lapOps; i++ {
		o := gen.next()
		start := time.Now()
		_, done, ok := cr.exec(o)
		if !ok {
			cr.failed++
			continue
		}
		lap.add(float64(done.Sub(start)) / float64(time.Millisecond))
	}
	c1, t1, err := routeTotals()
	if err != nil {
		return err
	}
	m := r.res.metrics
	m["client.lookup_p50_us"] = lap.p(50) * 1000
	m["server.live_lookup_mean_us"] = ratio(t1-t0, float64(c1-c0)) * 1000
	m["server.http_overhead_lookup_us"] = m["client.lookup_p50_us"] - m["server.live_lookup_mean_us"]
	return nil
}
