package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/postprocess"
	"repro/internal/refresh"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/spectral"
	"repro/internal/transport"
	"repro/internal/wal"
)

// The traced pass's second half: layer probes. The harness links the
// layers and replays the same seeded request streams single-threaded
// against their public functions, with a span around each call. The
// probes run after the daemons are gone and are the same in every
// workload: they describe the layers, the live counters describe the
// workload.

// Probe sizes: how much of each stream is replayed.
const (
	probeReads       = 20000
	probeSearches    = 600
	probeAllocOps    = 2000
	probeEdgeBatches = 10
	probeWriteRounds = 20
	probeRebuilds    = 40 // batches both the stage replay and the real refresh worker are given
	probeWALBatches  = 50
	// daemonDebounce and the rebuild settings are the daemons' defaults,
	// which the in-process deployment mirrors.
	daemonDebounce       = 50 * time.Millisecond
	rederiveCAfter       = 0.25
	incrementalThreshold = 0.25
)

// prober carries the probes' shared state: the in-process deployment
// (two shard workers with data directories behind real loopback HTTP
// servers, a dialed router, the public handler) and the trace.
type prober struct {
	r   *run
	t   *tracer
	m   map[string]float64
	dir string
	g   *graph.Graph
	ops int // op ids for spans

	pieces []shard.Piece
	c      float64
	cover0 *cover.Cover // shard 0's cover, in its local ids
	maxN   int

	workers  []*shard.Worker
	stores   []*persist.Store
	servers  []*http.Server
	addrs    []string
	backends []shard.Backend
	router   *shard.Router
	srv      *server.Server
	handler  http.Handler
	muts     *mutationStream

	asyncMu  sync.Mutex
	asyncErr error // first failure on a worker goroutine (publish hook)
}

// span times fn under a new span and returns the duration in the unit
// the divisor selects.
func (p *prober) span(name string, parent int, fn func()) time.Duration {
	id := p.t.begin(name, parent, p.ops)
	fn()
	return p.t.end(id)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r *run) probes() error {
	p := &prober{r: r, t: r.tracer, m: r.res.metrics, g: r.in.bench.Graph,
		dir: filepath.Join(r.cfg.runDir, "probe"), maxN: 8 * r.in.n()}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	defer p.shutdown()
	for _, step := range []func() error{
		p.setupStages, p.deploy, p.readPath, p.searchPath, p.writePath,
		p.snapshotTransfer, p.recovery, p.refreshStages, p.walAppends,
	} {
		if err := step(); err != nil {
			return fmt.Errorf("layer probe: %w", err)
		}
	}
	p.asyncMu.Lock()
	err := p.asyncErr
	p.asyncMu.Unlock()
	if err != nil {
		return fmt.Errorf("layer probe: %w", err)
	}
	p.fromTrace()
	if s := childrenWithinParents(p.t.spans); s != nil {
		r.res.problem("trace: span %d (%s) leaves its parent's interval", s.ID, s.Name)
	}
	return nil
}

// setupStages times what a daemon does between exec and serving:
// reading the input, splitting it, deriving c, the full OCA run, the
// merge and the index build — on shard 0's piece, which is what a shard
// process computes.
func (p *prober) setupStages() error {
	var err error
	f, err := os.Open(filepath.Join(p.r.cfg.runDir, "graph.txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	p.m["graph.read_edgelist_ms"] = ms(p.span("graph.read_edgelist", 0, func() { _, err = graph.ReadEdgeList(f) }))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	p.m["graph.binary_write_ms"] = ms(p.span("graph.binary_write", 0, func() { err = graph.WriteBinary(&buf, p.g) }))
	if err != nil {
		return err
	}
	p.m["graph.binary_read_ms"] = ms(p.span("graph.binary_read", 0, func() { _, err = graph.ReadBinary(bytes.NewReader(buf.Bytes())) }))
	if err != nil {
		return err
	}

	p.m["shard.split_ms"] = ms(p.span("shard.split", 0, func() { p.pieces, err = shard.Split(p.g, shardCount) }))
	if err != nil {
		return err
	}
	locals, owned := 0, 0
	for _, pc := range p.pieces {
		locals += len(pc.Locals)
		owned += pc.Owned
	}
	p.m["shard.ghost_ratio"] = ratio(float64(locals-owned), float64(owned))

	pg := p.pieces[0].Graph
	p.m["spectral.c_ms"] = ms(p.span("spectral.c", 0, func() { p.c, err = spectral.C(pg, spectral.Options{}) }))
	if err != nil {
		return err
	}
	// One worker: the counts below repeat exactly for a seed.
	var res *core.Result
	p.m["core.run_full_ms"] = ms(p.span("core.run_full", 0, func() {
		res, err = core.Run(pg, core.Options{Seed: 1, C: p.c, Workers: 1, DisableMerge: true})
	}))
	if err != nil {
		return err
	}
	p.m["core.full_seeds_tried"] = float64(res.SeedsTried)
	p.m["core.full_steps"] = float64(res.Steps)
	p.m["postprocess.merge_ms"] = ms(p.span("postprocess.merge", 0, func() {
		p.cover0 = postprocess.Merge(res.Cover, postprocess.DefaultMergeThreshold)
	}))
	p.cover0.SortBySize()
	p.m["index.build_ms"] = ms(p.span("index.build", 0, func() { index.Build(p.cover0, pg.N()) }))
	return nil
}

// coverFor translates shard 0's cover into piece i's local ids, so
// every in-process shard serves a valid cover after one OCA run.
func (p *prober) coverFor(i int) *cover.Cover {
	if i == 0 {
		return p.cover0
	}
	local := make(map[int32]int32, len(p.pieces[i].Locals))
	for l, gv := range p.pieces[i].Locals {
		local[gv] = int32(l)
	}
	var out []cover.Community
	for _, c := range p.cover0.Communities {
		var ms []int32
		for _, l0 := range c {
			if l, ok := local[p.pieces[0].Locals[l0]]; ok {
				ms = append(ms, l)
			}
		}
		if len(ms) > 0 {
			out = append(out, cover.NewCommunity(ms))
		}
	}
	cv := cover.NewCover(out)
	cv.SortBySize()
	return cv
}

// deploy assembles the in-process deployment the way cmd/ocad wires its
// roles: per shard a worker with a data directory (boot segment sealed,
// WAL logging every applied batch with fsync, a segment every 8th
// publish) behind transport.NewShardServer on a loopback listener, and
// a router dialed over them.
func (p *prober) deploy() error {
	var seals []float64
	for i, pc := range p.pieces {
		store, err := persist.Open(persist.Options{
			Dir: filepath.Join(p.dir, fmt.Sprintf("shard-%d", i)), FsyncEveryBatch: true,
			SegmentEvery: 8, Retain: 3, Shard: i, Shards: shardCount, MaxNodes: p.maxN,
		})
		if err != nil {
			return err
		}
		p.stores = append(p.stores, store)
		if _, err := store.Load(); err != nil {
			return err
		}
		var w *shard.Worker
		scfg := p.shardConfig()
		scfg.LogBatch = func(b shard.Batch, seq uint64) error {
			return store.LogEdgeBatch(wal.EdgeBatch{Seq: seq, Base: b.Base, NewLocals: b.NewLocals, Add: b.Add, Remove: b.Remove})
		}
		scfg.OnSwap = func(_ int, sn *refresh.Snapshot) {
			if err := store.OnPublish(sn, w.Table()[:sn.Graph.N()]); err != nil {
				p.asyncMu.Lock()
				if p.asyncErr == nil {
					p.asyncErr = fmt.Errorf("shard %d: persisting generation %d: %w", i, sn.Gen, err)
				}
				p.asyncMu.Unlock()
			}
		}
		cv := p.coverFor(i)
		w = shard.NewWorkerFromSnapshot(&refresh.Snapshot{
			Gen: 1, Graph: pc.Graph, Cover: cv, Result: &core.Result{Cover: cv, C: p.c}, C: p.c,
			BuiltAt: time.Now(), RebuildMode: refresh.ModeFull,
		}, pc.Locals, i, shardCount, scfg, p.maxN)
		p.workers = append(p.workers, w)
		sn := w.Snapshot()
		seals = append(seals, ms(p.span("persist.seal", 0, func() { err = store.Seal(sn, w.Table()[:sn.Graph.N()]) })))
		if err != nil {
			return err
		}
		if err := store.Begin(sn.Gen); err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: transport.NewShardServer(w, transport.ServerConfig{GlobalNodes: p.g.N(), MaxNodes: p.maxN}).Handler()}
		p.servers = append(p.servers, hs)
		p.addrs = append(p.addrs, ln.Addr().String())
		go hs.Serve(ln) // returns when shutdown closes the server
	}
	p.m["persist.seal_ms"] = mean(seals)
	seg, err := os.Stat(filepath.Join(p.dir, "shard-0", persist.SegmentName(1)))
	if err != nil {
		return err
	}
	p.m["persist.segment_bytes"] = float64(seg.Size())

	var info transport.DeployInfo
	p.m["transport.dial_ms"] = ms(p.span("transport.dial", 0, func() {
		p.backends, info, err = transport.DialBackends(context.Background(), p.addrs, transport.Options{})
	}))
	if err != nil {
		return err
	}
	if p.router, err = shard.NewRouterBackends(p.backends, info.CurN, info.MaxNodes, 0); err != nil {
		return err
	}
	if p.srv, err = server.NewWithProvider(p.router, server.Config{
		OCA: core.Options{Seed: 1}, RefreshDebounce: daemonDebounce,
		RederiveCAfter: rederiveCAfter, IncrementalThreshold: incrementalThreshold,
	}); err != nil {
		return err
	}
	p.handler = p.srv.Handler()
	p.muts = newMutationStream(p.r.in, 8)
	return nil
}

func (p *prober) shardConfig() shard.Config {
	return shard.Config{
		OCA: core.Options{Seed: 1}, Debounce: daemonDebounce,
		RederiveCAfter: rederiveCAfter, IncrementalThreshold: incrementalThreshold,
	}
}

// shutdown releases the in-process deployment. Workers stop without a
// final seal: the data directories are left as a SIGKILL leaves them.
func (p *prober) shutdown() {
	if p.srv != nil {
		p.srv.Close() // closes the router and its mirror pollers
		p.srv = nil
	}
	for _, hs := range p.servers {
		hs.Close()
	}
	for _, w := range p.workers {
		w.Close()
	}
	for _, st := range p.stores {
		st.Close()
	}
	p.servers, p.workers, p.stores = nil, nil, nil
}

func newRequest(method, path string, body []byte) (*httptest.ResponseRecorder, *http.Request) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	return httptest.NewRecorder(), httptest.NewRequest(method, path, rd)
}

// serve runs one request through the public handler on a recorder.
func (p *prober) serve(method, path string, body []byte) *httptest.ResponseRecorder {
	rec, req := newRequest(method, path, body)
	p.handler.ServeHTTP(rec, req)
	return rec
}

// handle is serve under a span that covers ServeHTTP alone: the request
// and the recorder are built before it opens, and the caller decodes
// the answer after it has closed. It returns the span's id too.
func (p *prober) handle(span, method, path string, body []byte) (*httptest.ResponseRecorder, int) {
	rec, req := newRequest(method, path, body)
	id := p.t.begin(span, 0, p.ops)
	p.handler.ServeHTTP(rec, req)
	p.t.end(id)
	return rec, id
}

// onOneP runs the handler probes on one P and returns the call that
// restores GOMAXPROCS. The handler chain hands every request to a fresh
// goroutine (http.TimeoutHandler) and waits for it; with a second P that
// hand-off sometimes goes through a thread wake-up (~15 µs) and
// sometimes not, and the median of the 6 µs / 23 µs mixture flips from
// run to run. On one P the span is the handler's own CPU time.
func onOneP() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

func lookupPath(id int32) string { return "/v1/node/" + strconv.Itoa(int(id)) + "/communities" }

func batchBody(ids []int32) []byte {
	b, _ := json.Marshal(struct {
		IDs []int32 `json:"ids"`
	}{ids}) // marshalling a slice of ints cannot fail
	return b
}

func searchBody(seed int32, rngSeed int64) []byte {
	b, _ := json.Marshal(struct {
		Seed    int32 `json:"seed"`
		RNGSeed int64 `json:"rng_seed,omitempty"`
	}{seed, rngSeed}) // marshalling two integers cannot fail
	return b
}

// readPath replays the lookup workload's first reads through the
// handler, then the routing and index calls the handler makes, on their
// own and laid into the handler span as replayed children.
func (p *prober) readPath() error {
	defer onOneP()()
	gen := clientGen("lookup", p.r.in, 0, nil)
	var lookupBytes, batchBytes []float64
	var ids []int32
	for i := 0; i < probeReads; i++ {
		o := gen.next()
		p.ops++
		if o.kind == opLookup {
			ids = append(ids, o.id)
			path := lookupPath(o.id)
			rec, id := p.handle("server.handler_lookup", "GET", path, nil)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("GET %s: status %d", path, rec.Code)
			}
			lookupBytes = append(lookupBytes, float64(rec.Body.Len()))
			// The same calls the handler just made, replayed.
			t0 := time.Now()
			view, local, ok, err := p.router.ViewFor(o.id)
			t1 := time.Now()
			if err != nil || !ok {
				return fmt.Errorf("ViewFor(%d): ok=%v err=%v", o.id, ok, err)
			}
			view.Snap.Index.Communities(local)
			t2 := time.Now()
			p.t.child(id, "shard.route", t1.Sub(t0))
			p.t.child(id, "index.lookup", t2.Sub(t1))
			continue
		}
		rec, _ := p.handle("server.handler_batch", "POST", "/v1/nodes/communities", batchBody(o.ids))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("POST /v1/nodes/communities: status %d", rec.Code)
		}
		batchBytes = append(batchBytes, float64(rec.Body.Len()))
	}
	p.m["server.resp_bytes_lookup"] = mean(lookupBytes)
	p.m["server.resp_bytes_batch"] = mean(batchBytes)

	// Per-call clock reads cost as much as these calls, so their own
	// metrics come from tight loops over the same ids.
	views := make([]shard.View, len(ids))
	localIDs := make([]int32, len(ids))
	t0 := time.Now()
	for i, id := range ids {
		views[i], localIDs[i], _, _ = p.router.ViewFor(id)
	}
	t1 := time.Now()
	sink := 0
	for i := range ids {
		sink += len(views[i].Snap.Index.Communities(localIDs[i]))
	}
	t2 := time.Now()
	p.m["shard.route_ns"] = float64(t1.Sub(t0)) / float64(len(ids))
	p.m["index.lookup_ns"] = float64(t2.Sub(t1)) / float64(len(ids))
	if sink < 0 {
		return fmt.Errorf("unreachable")
	}

	// Allocations per request: Mallocs over a run of identical-shape
	// requests, less what building the request and recorder costs.
	batch := batchBody(ids[:batchIDs])
	p.m["server.allocs_per_lookup"] = p.allocsPer(func(i int) { p.serve("GET", lookupPath(ids[i%len(ids)]), nil) }) -
		p.allocsPer(func(i int) { httptest.NewRecorder(); httptest.NewRequest("GET", lookupPath(ids[i%len(ids)]), nil) })
	p.m["server.allocs_per_batch"] = p.allocsPer(func(int) { p.serve("POST", "/v1/nodes/communities", batch) }) -
		p.allocsPer(func(int) {
			httptest.NewRecorder()
			httptest.NewRequest("POST", "/v1/nodes/communities", bytes.NewReader(batch))
		})
	return nil
}

func (p *prober) allocsPer(fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < probeAllocOps; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / probeAllocOps
}

// searchPath replays the search workload's stream through the handler.
// A miss's span gets the local search itself as a replayed child: the
// same seed, generation and rng_seed on a pooled search.State.
func (p *prober) searchPath() error {
	defer onOneP()()
	hot := hotSeeds(p.r.in.seed, p.r.in.n())
	for _, s := range hot { // prime the cache so hot requests hit
		if rec := p.serve("POST", "/v1/search", searchBody(s, 0)); rec.Code != http.StatusOK {
			return fmt.Errorf("POST /v1/search seed %d: status %d: %.200s", s, rec.Code, rec.Body.Bytes())
		}
	}
	states := make([]*search.State, shardCount)
	var sizes []float64
	gen := clientGen("search", p.r.in, 0, nil)
	for i := 0; i < probeSearches; i++ {
		o := gen.next()
		p.ops++
		name := "server.handler_search_miss"
		if o.kind == opSearchHot {
			name = "server.handler_search_hit"
		}
		rec, id := p.handle(name, "POST", "/v1/search", searchBody(o.id, o.rngSeed))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("POST /v1/search seed %d: status %d: %.200s", o.id, rec.Code, rec.Body.Bytes())
		}
		var sr searchResp
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
			return err
		}
		if sr.Cached != (o.kind == opSearchHot) {
			return fmt.Errorf("search probe: seed %d cached=%v on a %s request", o.id, sr.Cached, name)
		}
		if o.kind == opSearchHot {
			continue
		}
		view, local, ok, err := p.router.ViewFor(o.id)
		if err != nil || !ok {
			return fmt.Errorf("ViewFor(%d): ok=%v err=%v", o.id, ok, err)
		}
		st := states[view.Shard]
		if st == nil {
			st = search.NewState(view.Snap.Graph, view.Snap.MaxDegree)
			states[view.Shard] = st
		}
		t0 := time.Now()
		community, _ := core.FindCommunityWith(view.Snap.Graph, st, local, view.Snap.C,
			rand.New(rand.NewSource(o.rngSeed)), core.Options{Seed: 1, MaxSteps: 100000})
		p.t.child(id, "core.find_community", time.Since(t0))
		if len(community) != sr.Size {
			return fmt.Errorf("search probe: replayed search from %d found %d members, the handler %d", o.id, len(community), sr.Size)
		}
		sizes = append(sizes, float64(len(community)))
	}
	p.m["core.community_size_mean"] = mean(sizes)
	return nil
}

// writePath drives the stationary mutation stream into the deployment
// three ways: through the public handler without waiting, through
// Router.Enqueue + Flush, and as a bare apply RPC to one shard.
func (p *prober) writePath() error {
	ctx := context.Background()
	for i := 0; i < probeEdgeBatches; i++ {
		add, remove := p.muts.nextBatch()
		body, _ := json.Marshal(struct {
			Add    [][2]int32 `json:"add,omitempty"`
			Remove [][2]int32 `json:"remove,omitempty"`
		}{add, remove})
		p.ops++
		rec, _ := p.handle("server.handler_edges", "POST", "/v1/edges", body)
		if rec.Code/100 != 2 {
			return fmt.Errorf("POST /v1/edges: status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
	}
	if _, err := p.router.Flush(ctx, nil); err != nil {
		return err
	}

	var touchedCounts []float64
	for i := 0; i < probeWriteRounds; i++ {
		add, remove := p.muts.nextBatch()
		p.ops++
		var touched []int
		var err error
		p.span("shard.enqueue", 0, func() { _, _, touched, err = p.router.Enqueue(ctx, add, remove) })
		if err != nil {
			return err
		}
		touchedCounts = append(touchedCounts, float64(len(touched)))
		p.span("transport.flush_rpc", 0, func() { _, err = p.router.Flush(ctx, touched) })
		if err != nil {
			return err
		}
	}
	p.m["shard.touched_shards_per_batch"] = mean(touchedCounts)

	// A bare apply RPC: sixteen re-adds of edges shard 0 already holds,
	// so the wire, the WAL fsync and the queueing are paid and the graph
	// stays as it is.
	b0 := p.backends[0]
	var existing [][2]int32
	p.g.Edges(func(u, v int32) bool {
		lu, ok1 := b0.Lookup(u)
		lv, ok2 := b0.Lookup(v)
		if ok1 && ok2 {
			existing = append(existing, [2]int32{lu, lv})
		}
		return len(existing) < 16
	})
	for i := 0; i < probeWriteRounds; i++ {
		p.ops++
		var err error
		p.span("transport.apply_rpc", 0, func() { err = b0.Apply(ctx, existing, nil) })
		if err != nil {
			return err
		}
	}
	_, err := b0.Flush(ctx)
	return err
}

// snapshotTransfer times a raw GET of shard 0's current snapshot: what
// the router pulls again after every publish.
func (p *prober) snapshotTransfer() error {
	var sizes []float64
	for i := 0; i < 3; i++ {
		p.ops++
		var err error
		var n int64
		p.span("transport.snapshot_get", 0, func() {
			var resp *http.Response
			if resp, err = http.Get("http://" + p.addrs[0] + transport.PathSnapshot); err != nil {
				return
			}
			n, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("GET %s: status %d", transport.PathSnapshot, resp.StatusCode)
			}
		})
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(n))
	}
	p.m["transport.snapshot_bytes"] = mean(sizes)
	return nil
}

// recovery stops the deployment as a SIGKILL would (no final seal) and
// times what shard 0's restart does: load the newest segment and the
// WAL tail, replay the tail, and — on its own — read the live WAL.
func (p *prober) recovery() error {
	dir := filepath.Join(p.dir, "shard-0")
	p.shutdown()

	store, err := persist.Open(persist.Options{Dir: dir, FsyncEveryBatch: true, SegmentEvery: 8, Retain: 3,
		Shard: 0, Shards: shardCount, MaxNodes: p.maxN})
	if err != nil {
		return err
	}
	defer store.Close()
	var st *persist.State
	p.ops++
	p.m["persist.load_ms"] = ms(p.span("persist.load", 0, func() { st, err = store.Load() }))
	if err != nil {
		return err
	}
	if st.Segment == nil {
		return fmt.Errorf("recovery probe: no segment in %s", dir)
	}
	p.m["persist.replay_ms"] = ms(p.span("persist.replay", 0, func() {
		_, _, err = persist.ReplayShard(st, 0, shardCount, p.shardConfig(), p.maxN)
	}))
	if err != nil {
		return err
	}
	walPath := filepath.Join(dir, persist.WALName(st.Segment.Snapshot().Gen))
	p.m["wal.read_log_ms"] = ms(p.span("wal.read_log", 0, func() { _, _, _, err = wal.ReadLogFile(walPath) }))
	return err
}

// shard0Batches is the mutation stream as shard 0's refresh worker sees
// it: the first probeRebuilds batches in the piece's local ids, less the
// edges with an endpoint the piece does not hold and the batches that
// leaves empty. The stage probe and the worker probe both replay it, so
// their times compare like with like.
func (p *prober) shard0Batches() (adds, removes [][][2]int32) {
	local := make(map[int32]int32, len(p.pieces[0].Locals))
	for l, gv := range p.pieces[0].Locals {
		local[gv] = int32(l)
	}
	translate := func(es [][2]int32) [][2]int32 {
		var out [][2]int32
		for _, e := range es {
			lu, ok1 := local[e[0]]
			lv, ok2 := local[e[1]]
			if ok1 && ok2 {
				out = append(out, [2]int32{lu, lv})
			}
		}
		return out
	}
	muts := newMutationStream(p.r.in, 8)
	for b := 0; b < probeRebuilds; b++ {
		add, remove := muts.nextBatch()
		add, remove = translate(add), translate(remove)
		if len(add)+len(remove) > 0 {
			adds, removes = append(adds, add), append(removes, remove)
		}
	}
	return adds, removes
}

// rebuildStages walks the incremental rebuild the refresh worker runs
// for a small batch, stage by stage under one parent span per batch:
// graph.Delta.Apply, the Restrict+Warm core.Run, postprocess.MergeInto
// and index.Patch — on shard 0's piece, cover and batches, exactly what
// refreshWorker hands the real worker, with one search worker so the
// seed and step counts repeat exactly. It returns the cover it ends on.
func (p *prober) rebuildStages(adds, removes [][][2]int32) (*cover.Cover, error) {
	g, cv := p.pieces[0].Graph, p.cover0
	ix := index.Build(cv, g.N())
	var seeds, steps float64
	for b := range adds {
		p.ops++
		parent := p.t.begin("refresh.rebuild", 0, p.ops)
		var ng *graph.Graph
		var touched []int32
		var err error
		p.span("graph.delta_apply", parent, func() {
			d := graph.NewDelta(g)
			for _, e := range adds[b] {
				if err == nil {
					err = d.AddEdge(e[0], e[1])
				}
			}
			for _, e := range removes[b] {
				if err == nil {
					err = d.RemoveEdge(e[0], e[1])
				}
			}
			ng, touched = d.Apply(), d.Touched()
		})
		if err != nil {
			return nil, err
		}
		// The worker's plan: the communities holding a mutated endpoint
		// are removed and re-found over the dirty region (those endpoints
		// and communities' members, once each); the rest is carried as the
		// warm cover.
		removed := make([]bool, cv.Len())
		inDirty := make([]bool, ng.N())
		var dirty []int32
		markDirty := func(vs []int32) {
			for _, v := range vs {
				if !inDirty[v] {
					inDirty[v] = true
					dirty = append(dirty, v)
				}
			}
		}
		markDirty(touched)
		for _, v := range touched {
			for _, ci := range ix.Communities(v) {
				removed[ci] = true
			}
		}
		var warm []cover.Community
		var warmOld []int32
		for ci, c := range cv.Communities {
			if removed[ci] {
				markDirty(c)
			} else {
				warm = append(warm, c)
				warmOld = append(warmOld, int32(ci))
			}
		}
		var res *core.Result
		p.span("core.run_restrict", parent, func() {
			res, err = core.Run(ng, core.Options{Seed: 1, C: p.c, Workers: 1, Warm: warm, Restrict: dirty, DisableMerge: true})
		})
		if err != nil {
			return nil, err
		}
		seeds += float64(res.SeedsTried)
		steps += float64(res.Steps)
		var merged *cover.Cover
		var kept int
		var keptOld []int32
		p.span("postprocess.merge_into", parent, func() {
			merged, kept, keptOld = postprocess.MergeInto(warm, warmOld, ix, res.Fresh, postprocess.DefaultMergeThreshold)
		})
		removedAll := make([]bool, cv.Len())
		for i := range removedAll {
			removedAll[i] = true
		}
		for _, id := range keptOld {
			removedAll[id] = false
		}
		var nix *index.Membership
		p.span("index.patch", parent, func() { nix = index.Patch(ix, removedAll, merged.Communities[kept:], ng.N()) })
		p.t.end(parent)
		// As the worker does after patching: back to the canonical
		// size-sorted order, index permuted to match.
		if perm, sorted := merged.SortPerm(); !sorted {
			merged.ApplyPerm(perm)
			nix = index.Permute(nix, perm)
		}
		g, cv, ix = ng, merged, nix
	}
	p.m["core.restrict_seeds_tried"] = seeds
	p.m["core.restrict_steps"] = steps
	return cv, nil
}

// refreshStages replays shard 0's batches twice: stage by stage
// (rebuildStages), then through the real refresh.Worker, one search at
// a time like the stages — Enqueue then Flush, which skips the debounce
// as a wait:true request does. Both start from the same graph and cover
// and must end on the same cover, or the stages are not the worker's.
func (p *prober) refreshStages() error {
	adds, removes := p.shard0Batches()
	staged, err := p.rebuildStages(adds, removes)
	if err != nil {
		return err
	}
	snap := refresh.NewSnapshot(p.pieces[0].Graph, p.cover0, &core.Result{Cover: p.cover0, C: p.c}, p.c, 0)
	snap.Gen = 1
	w := refresh.New(snap, refresh.Config{
		OCA: core.Options{Seed: 1, C: p.c, Workers: 1}, Debounce: daemonDebounce, MaxNodes: p.maxN,
		RederiveCAfter: rederiveCAfter, IncrementalThreshold: incrementalThreshold,
	})
	w.Start()
	defer w.Close()
	for b := range adds {
		p.ops++
		p.span("refresh.enqueue_flush", 0, func() {
			if _, _, err = w.Enqueue(adds[b], removes[b]); err == nil {
				_, err = w.Flush(context.Background())
			}
		})
		if err != nil {
			return err
		}
	}
	if got := w.Snapshot().Cover; !sameCover(got, staged) {
		p.r.res.problem("layer probe: after %d batches the refresh worker serves %d communities, the stage replay %d, or their members differ",
			len(adds), got.Len(), staged.Len())
	}
	return nil
}

// sameCover compares two covers in canonical order community by
// community.
func sameCover(a, b *cover.Cover) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, c := range a.Communities {
		if membersHash(c) != membersHash(b.Communities[i]) {
			return false
		}
	}
	return true
}

// walAppends times wal.Log.AppendEdgeBatch with and without the
// per-record fsync, on sixteen-operation batches like the daemons log.
func (p *prober) walAppends() error {
	muts := newMutationStream(p.r.in, 8)
	var size int64
	for _, sync := range []bool{true, false} {
		name := "wal.append_nosync"
		if sync {
			name = "wal.append_fsync"
		}
		l, err := wal.Create(filepath.Join(p.dir, name+".ocawal"), 1, sync)
		if err != nil {
			return err
		}
		empty := l.Size()
		for b := 0; b < probeWALBatches; b++ {
			add, remove := muts.nextBatch()
			p.ops++
			p.span(name, 0, func() {
				err = l.AppendEdgeBatch(wal.EdgeBatch{Seq: uint64(b+1) * 16, Base: p.g.N(), Add: add, Remove: remove})
			})
			if err != nil {
				l.Close()
				return err
			}
		}
		size = l.Size() - empty
		if err := l.Close(); err != nil {
			return err
		}
	}
	p.m["wal.bytes_per_batch"] = float64(size) / probeWALBatches
	// Per 8 published batches the daemon writes 8 WAL records and one
	// segment; a user edge operation is 8 bytes (two int32 node ids).
	userBytes := 8.0 * 16 * 8
	p.m["persist.write_amp"] = (8*p.m["wal.bytes_per_batch"] + p.m["persist.segment_bytes"]) / userBytes
	return nil
}

// fromTrace turns span self times into the metrics named after them:
// medians for the request handlers and RPCs, means for the rebuild
// stages — a rebuild either covers its dirty region in a few seeds or
// runs into the patience limit, and only means of such a two-humped
// cost add up to the whole.
func (p *prober) fromTrace() {
	self := selfTimes(p.t.spans)
	for _, x := range []struct {
		metric, span string
		unit         time.Duration
		agg          func([]float64) float64
	}{
		{"server.handler_lookup_us", "server.handler_lookup", time.Microsecond, median},
		{"server.handler_batch_us", "server.handler_batch", time.Microsecond, median},
		{"server.handler_search_hit_us", "server.handler_search_hit", time.Microsecond, median},
		{"server.handler_search_miss_us", "server.handler_search_miss", time.Microsecond, median},
		{"server.handler_edges_us", "server.handler_edges", time.Microsecond, median},
		{"core.find_community_us", "core.find_community", time.Microsecond, median},
		{"shard.enqueue_us", "shard.enqueue", time.Microsecond, median},
		{"transport.apply_rpc_us", "transport.apply_rpc", time.Microsecond, median},
		{"transport.snapshot_get_ms", "transport.snapshot_get", time.Millisecond, median},
		{"wal.append_fsync_us", "wal.append_fsync", time.Microsecond, median},
		{"wal.append_nosync_us", "wal.append_nosync", time.Microsecond, median},
		{"transport.flush_rpc_ms", "transport.flush_rpc", time.Millisecond, mean},
		{"graph.delta_apply_ms", "graph.delta_apply", time.Millisecond, mean},
		{"core.run_restrict_ms", "core.run_restrict", time.Millisecond, mean},
		{"postprocess.merge_into_ms", "postprocess.merge_into", time.Millisecond, mean},
		{"index.patch_ms", "index.patch", time.Millisecond, mean},
		{"refresh.enqueue_flush_ms", "refresh.enqueue_flush", time.Millisecond, mean},
	} {
		p.m[x.metric] = x.agg(self[x.span]) / float64(x.unit)
	}
	// What the worker's Enqueue→Flush (which skips the debounce) takes
	// beyond the stages the probes can name, on the same graph, cover and
	// batches; reported, not hidden.
	p.m["mutate.unattributed_ms"] = p.m["refresh.enqueue_flush_ms"] -
		p.m["graph.delta_apply_ms"] - p.m["core.run_restrict_ms"] - p.m["postprocess.merge_into_ms"] - p.m["index.patch_ms"]
}

// budgetTable renders the layer budget of a trace as markdown rows:
// per span name the count, median duration and median self time.
func budgetTable(spans []span) string {
	self := selfTimes(spans)
	durs := make(map[string][]float64)
	var names []string
	for _, s := range spans {
		if _, ok := durs[s.Name]; !ok {
			names = append(names, s.Name)
		}
		durs[s.Name] = append(durs[s.Name], float64(s.Dur))
	}
	var b strings.Builder
	b.WriteString("| span | count | median | median self |\n|---|---|---|---|\n")
	for _, n := range names {
		fmt.Fprintf(&b, "| `%s` | %d | %s | %s |\n", n, len(durs[n]),
			time.Duration(median(durs[n])).Round(10*time.Nanosecond), time.Duration(median(self[n])).Round(10*time.Nanosecond))
	}
	return b.String()
}
