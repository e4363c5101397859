// The Worker: mutation intake, the debounced rebuild loop, and
// generation publication (see doc.go for the package overview).

package refresh

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/index"
)

// ErrBacklogFull is returned by Enqueue when the pending-mutation queue
// has reached Config.MaxPending; callers should shed load (HTTP 503)
// rather than buffer unboundedly.
var ErrBacklogFull = errors.New("refresh: mutation backlog full")

// ErrClosed is returned by Enqueue and Flush after Close.
var ErrClosed = errors.New("refresh: worker closed")

// DefaultMaxPending is Config.MaxPending's default backlog capacity.
const DefaultMaxPending = 1 << 20

// RetryAfter suggests how long a shedding caller should wait before
// retrying a mutation refused with ErrBacklogFull, scaled by how full
// the backlog is: a nearly-empty queue drains within a rebuild or two
// (1s), a saturated one needs the full drain window (10s). Serves the
// Retry-After headers on 503 responses (docs/OPERATIONS.md).
func RetryAfter(pending, capacity int) time.Duration {
	if capacity <= 0 || pending <= 0 {
		return time.Second
	}
	if pending > capacity {
		pending = capacity
	}
	d := time.Duration(float64(10*time.Second) * float64(pending) / float64(capacity))
	if d < time.Second {
		d = time.Second
	}
	return d
}

// Rebuild modes recorded in Snapshot.RebuildMode.
const (
	// ModeFull is a whole-graph rebuild: OCA seeded over all nodes,
	// global merge, index and stats rebuilt. Initial builds and
	// carried-over failures report it too.
	ModeFull = "full"
	// ModeIncremental is a dirty-region rebuild: OCA scoped to the
	// mutated endpoints and the members of the communities they
	// touched, fresh discoveries merged into the carried cover and the
	// index/stats patched instead of rebuilt.
	ModeIncremental = "incremental"
	// ModeFastpath published a new graph without running OCA at all:
	// the batch touched no community (and added no structure), so the
	// cover was carried unchanged.
	ModeFastpath = "fastpath"
)

// Snapshot is one immutable generation of the served state. All fields
// are read-only after publication; readers obtain a consistent view by
// loading the snapshot once and using only it for the whole request.
type Snapshot struct {
	// Gen numbers generations from 1; every rebuild increments it.
	Gen uint64
	// Seq is the cumulative count of mutation operations reflected in
	// this generation. The persistence layer uses it to decide which WAL
	// records a recovered segment already includes; a restored initial
	// snapshot's Seq also seeds the worker's op counter so sequence
	// numbers stay monotone across restarts.
	Seq uint64
	// Graph is the CSR graph this generation was computed over.
	Graph *graph.Graph
	// Cover holds the communities served in this generation.
	Cover *cover.Cover
	// Index is the inverted node→community index over Cover.
	Index *index.Membership
	// Stats are the cover-wide overlap statistics, computed once.
	Stats cover.OverlapStats
	// Result is the OCA run that produced Cover, nil when the cover was
	// preloaded or carried over after a failed rebuild.
	Result *core.Result
	// C is the inner-product parameter associated with this generation
	// (0 when not yet known, e.g. a preloaded cover before any search).
	C float64
	// MaxDegree is Graph.MaxDegree(), computed once for search pools.
	MaxDegree int
	// BuildTime is how long this generation took to compute.
	BuildTime time.Duration
	// BuiltAt is when this generation was published.
	BuiltAt time.Time
	// Aux carries layer-specific immutable metadata attached by a
	// Config.Assemble hook (the shard layer stores its local→global
	// ownership tables here). Nil on the plain single-graph path.
	Aux any
	// RebuildMode records how this generation was computed: ModeFull,
	// ModeIncremental or ModeFastpath.
	RebuildMode string
	// DirtyNodes is the dirty-region size of an incremental rebuild
	// (mutated endpoints plus members of touched communities); 0 on the
	// other modes.
	DirtyNodes int
	// Dirty lists the nodes this generation may answer differently from
	// its predecessor: the incremental dirty region, or just the mutated
	// endpoints on the fastpath. Nil after a full rebuild (everything may
	// differ). A seeded search whose seed and previous result avoid Dirty
	// still returned a locally optimal community on this generation's
	// graph — the reuse test behind the server's cache carry-forward.
	Dirty []int32
	// Patch describes what this publish changed in the cover relative to
	// generation Gen-1 (see Patch). Nil on generations no rebuild of this
	// worker produced: the initial one, restored and mirrored ones.
	Patch *Patch
}

// NewSnapshot assembles a Snapshot (index, stats, max degree) for the
// given graph and cover from scratch: Assemble with no PatchContext. Gen
// is left for the caller to assign.
func NewSnapshot(g *graph.Graph, cv *cover.Cover, res *core.Result, c float64, buildTime time.Duration) *Snapshot {
	return Assemble(g, cv, res, c, buildTime, nil)
}

// Assemble is the built-in snapshot assembler and the default
// Config.Assemble. With pc == nil the index and stats are built from
// scratch (index.Build, Cover.Stats); with a PatchContext they are
// patched from the previous generation's (index.Patch over the removed
// and appended communities, cover.PatchStats over AffectedNodes) — cost
// proportional to what the batch changed. cv must be in patch order:
// Communities[:pc.Kept] carried, the rest appended. Gen is left zero and
// RebuildMode is ModeFull until the worker stamps the mode it took.
func Assemble(g *graph.Graph, cv *cover.Cover, res *core.Result, c float64, buildTime time.Duration, pc *PatchContext) *Snapshot {
	snap := &Snapshot{
		Graph:       g,
		Cover:       cv,
		Result:      res,
		C:           c,
		MaxDegree:   g.MaxDegree(),
		BuildTime:   buildTime,
		BuiltAt:     time.Now(),
		RebuildMode: ModeFull,
	}
	if pc == nil {
		snap.Index = index.Build(cv, g.N())
		snap.Stats = cv.Stats(g.N())
		return snap
	}
	old, added := pc.Old, cv.Communities[pc.Kept:]
	snap.Index = index.Patch(old.Index, pc.Removed, added, g.N())
	snap.Stats = old.Stats
	if len(pc.Removed) > 0 || len(added) > 0 {
		// Ids the batch grew past the previous index's range report
		// Degree 0 there, matching "did not exist, had no memberships".
		affected := AffectedNodes(old.Cover, pc.Removed, added, g.N())
		snap.Stats = cover.PatchStats(old.Stats, cv, g.N(), affected, old.Index.Degree, snap.Index.Degree)
	}
	return snap
}

// Config tunes a Worker. The zero value re-runs OCA with the paper's
// defaults, warm-starts from the previous cover, coalesces mutations
// for 50ms and bounds the backlog at 1<<20 operations.
type Config struct {
	// OCA configures the re-run performed on every rebuild. When OCA.C
	// is 0 each rebuild derives c from the then-current graph's
	// spectrum; pinning a value makes rebuilds cheaper and generations
	// directly comparable.
	OCA core.Options
	// DisableWarmStart forces every rebuild to run OCA cold instead of
	// carrying over communities untouched by the mutations.
	DisableWarmStart bool
	// Debounce is how long a rebuild waits after the first queued
	// mutation so bursts coalesce into one OCA run. Flush skips it.
	// Default 50ms; negative means no wait.
	Debounce time.Duration
	// MaxPending caps the queued-mutation backlog. Default 1<<20.
	MaxPending int
	// MaxNodes caps how far mutations may grow the node set. When 0 (the
	// default) the node set is fixed at the initial snapshot's size and
	// edges naming ids beyond it are rejected; a larger value lets added
	// edges name new node ids up to it, extending the graph (new nodes
	// are isolated until an edge names them).
	MaxNodes int
	// IncrementalThreshold enables the dirty-region rebuild engine.
	// When a mutation batch touches at most this fraction of the
	// previous generation's communities, the rebuild runs OCA scoped to
	// the dirty region (mutated endpoints plus members of touched
	// communities), merges fresh discoveries into the carried cover
	// through postprocess.MergeInto and patches the index and stats —
	// O(|dirty region|) work instead of O(n). Batches touching no
	// community and adding no edges skip OCA entirely (ModeFastpath).
	// Above the fraction — or at the default 0 — every rebuild takes
	// the full path. Ignored when DisableWarmStart or AssignOrphans is
	// set (both are whole-graph semantics), and a rebuild that
	// re-derives c always runs full so the cover is scored under one
	// parameter. Incremental generations publish their covers in the
	// same canonical size-sorted order as full rebuilds (patched in
	// patch order, then permuted — see cover.Less), so cover ordering
	// is deterministic across rebuild modes.
	IncrementalThreshold float64
	// RederiveCAfter, when positive, re-derives c = -1/λmin from the
	// then-current graph's spectrum during a rebuild once the cumulative
	// number of applied mutations since the last derivation exceeds this
	// fraction of the graph's edge count — so a drifting graph does not
	// serve a stale startup parameter forever. 0 pins the inherited c
	// across all rebuilds (the cheap default).
	RederiveCAfter float64
	// Assemble, when set, assembles every published Snapshot in place
	// of the built-in Assemble (the default): from scratch when pc is
	// nil — full rebuilds and carry-overs — and from a description of
	// exactly what the batch changed (see PatchContext) on fastpath and
	// incremental rebuilds, so a custom snapshot layer can patch its
	// index, stats and metadata in O(|dirty region|) too. The shard
	// layer filters ghost-only communities and attaches ownership
	// metadata (Aux) here, calling the built-in Assemble for the rest.
	// It must leave Gen zero (the worker assigns it) and may not mutate
	// its inputs; it may ignore pc and assemble from scratch.
	Assemble func(g *graph.Graph, cv *cover.Cover, res *core.Result, c float64, buildTime time.Duration, pc *PatchContext) *Snapshot
	// LogBatch, when set, is called by Enqueue after a batch passes
	// validation and the backlog check but before it is queued, with the
	// worker's cumulative op count including the batch. An error rejects
	// the batch with no effect — accepted and logged are the same event,
	// which is what makes the write-ahead log authoritative. It runs
	// under the worker's mutex, so a durable (fsyncing) implementation
	// serializes mutation intake; see docs/PERSISTENCE.md for the
	// tradeoff.
	LogBatch func(add, remove [][2]int32, seq uint64) error
	// OnSwap, when set, is called from the worker goroutine after each
	// new generation is published (for logging/metrics).
	OnSwap func(*Snapshot)
}

// Status is a point-in-time view of the worker for observability
// endpoints. It is JSON-serializable: the shard wire protocol ships it
// verbatim in health probes.
type Status struct {
	// Gen is the current snapshot's generation.
	Gen uint64 `json:"generation"`
	// Pending counts queued mutations not yet part of any snapshot.
	Pending int `json:"pending"`
	// Rebuilding reports whether a rebuild is in flight.
	Rebuilding bool `json:"rebuilding"`
	// Rebuilds counts completed rebuilds (successful or carried-over).
	Rebuilds uint64 `json:"rebuilds"`
	// LastBuild is the duration of the current snapshot's build.
	LastBuild time.Duration `json:"last_build_nanos"`
	// BuiltAt is when the current snapshot was published.
	BuiltAt time.Time `json:"built_at"`
	// LastErr is the error of the most recent rebuild's OCA run, empty
	// when it succeeded.
	LastErr string `json:"last_error,omitempty"`
	// OldestPending is when the oldest queued mutation was enqueued
	// (zero when the queue is empty) — the age signal behind the
	// queue-depth gauges at /debug/metrics.
	OldestPending time.Time `json:"oldest_pending"`
}

type op struct {
	u, v int32
	del  bool
}

// Worker owns the snapshot and the background rebuild loop. Create with
// New, call Start once, and Close when done. All methods are safe for
// concurrent use.
type Worker struct {
	cfg Config
	cur atomic.Pointer[Snapshot]

	mu         sync.Mutex
	cond       *sync.Cond
	pending    []op
	pendingAt  time.Time // enqueue time of the oldest op still in pending
	takingAt   time.Time // enqueue time of the oldest op in the batch being rebuilt
	seq        uint64    // ops ever enqueued
	appliedSeq uint64    // ops included in (or superseded by) the current snapshot
	nextN      int       // node count including queued (not yet applied) growth
	maxNodes   int       // hard ceiling on nextN (initial N when growth is off)
	rebuilding bool
	rebuilds   uint64
	lastErr    error
	closed     bool
	forceFull  bool // a ForceRebuild is pending: rebuild even with no ops

	// opsSinceC counts mutations applied since c was last derived from
	// the spectrum; touched only by the rebuild goroutine.
	opsSinceC uint64

	kick    chan struct{} // wakes the loop; cap 1
	flushCh chan struct{} // skips the debounce wait; cap 1
	stop    chan struct{}
	done    chan struct{}
	started atomic.Bool
}

// New returns a Worker serving the given initial snapshot. If the
// snapshot has no generation yet it becomes generation 1. Start must be
// called for mutations to be applied.
func New(initial *Snapshot, cfg Config) *Worker {
	if cfg.Debounce == 0 {
		cfg.Debounce = 50 * time.Millisecond
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	if cfg.Assemble == nil {
		cfg.Assemble = Assemble
	}
	if initial.Gen == 0 {
		initial.Gen = 1
	}
	w := &Worker{
		cfg:     cfg,
		kick:    make(chan struct{}, 1),
		flushCh: make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	w.nextN = initial.Graph.N()
	w.seq = initial.Seq
	w.appliedSeq = initial.Seq
	w.maxNodes = cfg.MaxNodes
	if w.maxNodes < w.nextN {
		w.maxNodes = w.nextN // growth disabled: the node set stays fixed
	}
	w.cond = sync.NewCond(&w.mu)
	w.cur.Store(initial)
	return w
}

// Snapshot returns the current generation. It never blocks and the
// result is immutable; use one snapshot for an entire request.
func (w *Worker) Snapshot() *Snapshot { return w.cur.Load() }

// MaxPending reports the backlog capacity (Config.MaxPending after
// defaulting).
func (w *Worker) MaxPending() int { return w.cfg.MaxPending }

// Status returns a point-in-time view of the worker.
func (w *Worker) Status() Status {
	snap := w.cur.Load()
	w.mu.Lock()
	defer w.mu.Unlock()
	st := Status{
		Gen:        snap.Gen,
		Pending:    len(w.pending),
		Rebuilding: w.rebuilding,
		Rebuilds:   w.rebuilds,
		LastBuild:  snap.BuildTime,
		BuiltAt:    snap.BuiltAt,
	}
	if w.lastErr != nil {
		st.LastErr = w.lastErr.Error()
	}
	// The oldest mutation not yet reflected in any snapshot: a batch
	// taken by an in-flight rebuild keeps aging (takingAt) until its
	// generation publishes — an operator's staleness alert must not
	// reset just because the rebuild started.
	st.OldestPending = w.takingAt
	if st.OldestPending.IsZero() {
		st.OldestPending = w.pendingAt
	}
	return st
}

// ValidateBatch validates a mutation batch against a node set of n
// nodes with growth capped at maxNodes: self loops and negative ids are
// rejected, added edges may name new ids in [n, maxNodes), and removals
// may only name ids already present (including ids the batch's own adds
// grow to). It returns the node count after the batch's growth. The
// worker and the shard router share it, so both layers accept exactly
// the same batches — the router's cross-shard atomicity depends on
// that.
func ValidateBatch(add, remove [][2]int32, n, maxNodes int) (int, error) {
	batchN := n
	for _, e := range add {
		if e[0] == e[1] {
			return 0, fmt.Errorf("refresh: edge (%d, %d) is a self loop", e[0], e[1])
		}
		if e[0] < 0 || e[1] < 0 || int(e[0]) >= maxNodes || int(e[1]) >= maxNodes {
			return 0, fmt.Errorf("refresh: edge (%d, %d) out of range [0, %d)", e[0], e[1], maxNodes)
		}
		for _, v := range e {
			if int(v) >= batchN {
				batchN = int(v) + 1
			}
		}
	}
	for _, e := range remove {
		if e[0] == e[1] {
			return 0, fmt.Errorf("refresh: edge (%d, %d) is a self loop", e[0], e[1])
		}
		// Removals never grow: both endpoints must already exist, at
		// least as pending growth from this or an earlier batch.
		if e[0] < 0 || e[1] < 0 || int(e[0]) >= batchN || int(e[1]) >= batchN {
			return 0, fmt.Errorf("refresh: edge (%d, %d) out of range [0, %d)", e[0], e[1], batchN)
		}
	}
	return batchN, nil
}

// Enqueue validates and queues a batch of edge mutations. The batch is
// atomic: any invalid edge rejects the whole batch with no effect.
// Added edges may name node ids beyond the current node set when
// Config.MaxNodes allows it, growing the graph at the next rebuild;
// removals may only name nodes that exist (or are pending growth).
// It returns the generation current at enqueue time — once a later
// generation is visible, the batch is reflected in it — and the number
// of operations queued.
func (w *Worker) Enqueue(add, remove [][2]int32) (gen uint64, queued int, err error) {
	snap := w.cur.Load()

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return snap.Gen, 0, ErrClosed
	}
	// Validation runs under the lock so the growth bound (nextN) cannot
	// move between checking a batch and accepting it.
	batchN, err := ValidateBatch(add, remove, w.nextN, w.maxNodes)
	if err != nil {
		w.mu.Unlock()
		return snap.Gen, 0, err
	}
	total := len(add) + len(remove)
	if len(w.pending)+total > w.cfg.MaxPending {
		w.mu.Unlock()
		return snap.Gen, 0, ErrBacklogFull
	}
	if w.cfg.LogBatch != nil && total > 0 {
		if err := w.cfg.LogBatch(add, remove, w.seq+uint64(total)); err != nil {
			w.mu.Unlock()
			return snap.Gen, 0, fmt.Errorf("refresh: logging batch: %w", err)
		}
	}
	if len(w.pending) == 0 && total > 0 {
		w.pendingAt = time.Now()
	}
	for _, e := range add {
		w.pending = append(w.pending, op{u: e[0], v: e[1]})
	}
	for _, e := range remove {
		w.pending = append(w.pending, op{u: e[0], v: e[1], del: true})
	}
	w.nextN = batchN
	w.seq += uint64(total)
	gen = w.cur.Load().Gen
	w.mu.Unlock()

	select {
	case w.kick <- struct{}{}:
	default:
	}
	return gen, total, nil
}

// ForceRebuild queues a full rebuild even when no mutations are
// pending — the hook a partition-map change uses to re-evaluate
// ownership (a migrated range's donor drops it, the receiver adopts
// it) and a halo refresh uses to re-score against re-synced ghost
// edges. The rebuild publishes generation+1 like any other; it counts
// as one virtual operation so a subsequent Flush waits for it. Returns
// the generation current at the call.
func (w *Worker) ForceRebuild() (uint64, error) {
	snap := w.cur.Load()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return snap.Gen, ErrClosed
	}
	w.forceFull = true
	w.seq++
	if len(w.pending) == 0 {
		w.pendingAt = time.Now()
	}
	gen := w.cur.Load().Gen
	w.mu.Unlock()

	select {
	case w.kick <- struct{}{}:
	default:
	}
	return gen, nil
}

// Flush blocks until every mutation enqueued before the call is
// reflected in the current snapshot (skipping the debounce wait), then
// returns that snapshot. It respects ctx cancellation.
func (w *Worker) Flush(ctx context.Context) (*Snapshot, error) {
	w.mu.Lock()
	target := w.seq
	w.mu.Unlock()

	// Wake the loop and tell it to skip the debounce.
	select {
	case w.flushCh <- struct{}{}:
	default:
	}
	select {
	case w.kick <- struct{}{}:
	default:
	}

	// A helper goroutine turns ctx cancellation into a cond broadcast.
	waitDone := make(chan struct{})
	defer close(waitDone)
	go func() {
		select {
		case <-ctx.Done():
			w.cond.Broadcast()
		case <-waitDone:
		}
	}()

	w.mu.Lock()
	defer w.mu.Unlock()
	for w.appliedSeq < target {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if w.closed {
			return nil, ErrClosed
		}
		w.cond.Wait()
	}
	return w.cur.Load(), nil
}

// Start launches the background rebuild loop. It is a no-op when called
// more than once.
func (w *Worker) Start() {
	if !w.started.CompareAndSwap(false, true) {
		return
	}
	go w.loop()
}

// Close stops the rebuild loop and wakes any Flush waiters with
// ErrClosed. Queued but unapplied mutations are dropped. Safe to call
// multiple times; the snapshot remains readable after Close.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	close(w.stop)
	w.cond.Broadcast()
	if w.started.Load() {
		<-w.done
	} else {
		close(w.done)
	}
}

func (w *Worker) loop() {
	defer close(w.done)
	for {
		select {
		case <-w.stop:
			return
		case <-w.kick:
		}
		if d := w.cfg.Debounce; d > 0 {
			t := time.NewTimer(d)
			select {
			case <-w.stop:
				t.Stop()
				return
			case <-w.flushCh:
				t.Stop()
			case <-t.C:
			}
		}
		// Drain a stale flush token so it cannot skip a future debounce.
		select {
		case <-w.flushCh:
		default:
		}
		w.rebuild()
	}
}

// rebuild takes the queued mutations, applies them copy-on-write, runs
// OCA (full, scoped to the dirty region, or not at all — see
// planRebuild) and publishes the next generation.
func (w *Worker) rebuild() {
	w.mu.Lock()
	ops := w.pending
	w.pending = nil
	taken := w.seq
	growTo := w.nextN
	force := w.forceFull
	w.forceFull = false
	if len(ops) == 0 && !force {
		w.mu.Unlock()
		return
	}
	// The taken batch keeps its age until its generation publishes (see
	// Status); ops enqueued mid-rebuild restart pendingAt.
	w.takingAt = w.pendingAt
	w.pendingAt = time.Time{}
	w.rebuilding = true
	w.mu.Unlock()

	old := w.cur.Load()
	start := time.Now()
	d := graph.NewDelta(old.Graph)
	d.GrowTo(growTo)
	for _, o := range ops {
		// Validated at Enqueue against the same node range, so errors
		// here are impossible; Delta re-checks defensively.
		if o.del {
			_ = d.RemoveEdge(o.u, o.v)
		} else {
			_ = d.AddEdge(o.u, o.v)
		}
	}
	ng := d.Apply()

	if ng == old.Graph && !force {
		// Every operation was a no-op: nothing to recompute, the batch
		// is trivially reflected in the current snapshot.
		w.finish(taken, nil)
		return
	}

	opt := w.cfg.OCA
	w.opsSinceC += uint64(len(ops))
	rederive := w.cfg.RederiveCAfter > 0 && ng.M() > 0 &&
		float64(w.opsSinceC) >= w.cfg.RederiveCAfter*float64(ng.M())
	switch {
	case rederive:
		// Enough of the graph has churned that the startup-era spectrum
		// may no longer describe it: let this run re-derive c = -1/λmin
		// from the current graph instead of reusing the active value.
		opt.C = 0
	case w.cfg.RederiveCAfter > 0 && old.C > 0:
		// Drift tracking enabled: between re-derivations, follow the
		// previous generation's active c (the latest derivation), not
		// the startup-era configured value it may have replaced.
		opt.C = old.C
	case opt.C == 0 && old.C > 0:
		// An unpinned c resolves from the spectrum once (the first
		// rebuild, or the initial snapshot) and is reused afterwards:
		// re-deriving it per mutation batch would dominate refresh cost.
		opt.C = old.C
	}
	touched := d.Touched()
	mode, touchedComms := w.planRebuild(old, touched, ops, rederive)
	if force {
		// A forced rebuild re-evaluates the whole cover (ownership
		// filtering changed, or halo edges were re-synced): incremental
		// and fastpath shortcuts would skip exactly the re-evaluation
		// being asked for.
		mode, touchedComms = ModeFull, nil
	}

	var (
		snap *Snapshot
		err  error
	)
	switch mode {
	case ModeFastpath:
		snap = w.fastpathSnapshot(old, ng, ops, start)
		// The cover is untouched, but the graph changed at the mutated
		// endpoints: results computed there are not reusable downstream.
		snap.Dirty = touched
	case ModeIncremental:
		snap, err = w.incrementalSnapshot(old, ng, opt, ops, touched, touchedComms, start)
	}
	if snap == nil {
		// ModeFull, or an incremental run that errored and falls back to
		// the carry-over below.
		if !w.cfg.DisableWarmStart && old.Cover != nil {
			opt.Warm = carryUnaffected(old.Cover, touched)
			if force && len(touched) == 0 {
				// Forced rebuild of an unchanged graph: every previous
				// community is a valid warm start.
				opt.Warm = old.Cover.Communities
			}
		}
		// On failure the new graph publishes with the previous cover
		// carried over: mutations never shrink the node set, so the old
		// communities are still a valid (if stale) cover, and readers keep
		// getting answers.
		cv, c := old.Cover, old.C
		var res *core.Result
		if err == nil {
			if res, err = core.Run(ng, opt); err == nil {
				cv, c = res.Cover, res.C
				if rederive {
					w.opsSinceC = 0
				}
			}
		}
		snap = w.cfg.Assemble(ng, cv, res, c, time.Since(start), nil)
		snap.RebuildMode = ModeFull
		snap.Patch = replacePatch(old, snap)
	}
	snap.Gen = old.Gen + 1
	snap.Seq = taken
	w.cur.Store(snap)
	w.finish(taken, err)
	if w.cfg.OnSwap != nil {
		w.cfg.OnSwap(snap)
	}
}

func (w *Worker) finish(taken uint64, err error) {
	w.mu.Lock()
	w.rebuilding = false
	w.takingAt = time.Time{}
	if taken > w.appliedSeq {
		w.appliedSeq = taken
	}
	w.rebuilds++
	w.lastErr = err
	w.mu.Unlock()
	w.cond.Broadcast()
}

// carryUnaffected returns the communities of cv containing none of the
// touched nodes — the ones whose member neighborhoods the mutation batch
// provably did not change, safe to hand to OCA as warm starts. The
// returned communities alias cv's (immutable) member slices.
func carryUnaffected(cv *cover.Cover, touched []int32) []cover.Community {
	if len(touched) == 0 {
		return nil
	}
	hit := make(map[int32]struct{}, len(touched))
	for _, v := range touched {
		hit[v] = struct{}{}
	}
	var warm []cover.Community
	for _, c := range cv.Communities {
		affected := false
		for _, v := range c {
			if _, ok := hit[v]; ok {
				affected = true
				break
			}
		}
		if !affected {
			warm = append(warm, c)
		}
	}
	return warm
}
