package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/refresh"
	"repro/internal/spectral"
)

// ErrUnavailable marks a shard whose backend cannot be reached — a
// remote shard process that is down, unreachable or answering too
// slowly. The in-process Worker never returns it; the transport layer
// wraps its failures with it so the HTTP layer can map a degraded shard
// to 503 instead of 400.
var ErrUnavailable = errors.New("shard: backend unavailable")

// ErrTableConflict marks a shipped translation-table update that
// contradicts the shard's table — evidence of a second writer growing
// it, which the single-router protocol forbids. Not retryable.
var ErrTableConflict = errors.New("shard: translation-table conflict")

// Backend is one shard's serving engine as the Router sees it: the
// shard's authoritative (or replicated) global↔local translation table
// plus its query/mutation surface. Two implementations exist — the
// in-process *Worker below, and the transport package's remote client,
// which replays the same operations over the wire to a Worker hosted in
// another process. All methods except EnsureLocal are safe for
// concurrent use.
type Backend interface {
	// Lookup resolves a global node id in the shard's translation
	// table (including entries pending publication).
	Lookup(global int32) (int32, bool)
	// EnsureLocal returns the local id for a global node, appending a
	// new table entry when unseen. Callers serialize through the
	// router's mutation lock; the append order defines the shard's id
	// space, so it must be identical on every replica of the table.
	EnsureLocal(global int32) int32
	// Apply queues a batch of translated local-id mutations, bounded by
	// ctx for remote backends (a canceled caller cancels the in-flight
	// RPC). The remote implementation ships any translation-table growth
	// since the last successful Apply alongside the batch (the
	// ghost-table update riding the mutation fan-out).
	Apply(ctx context.Context, add, remove [][2]int32) error
	// View returns the shard's current published generation. It never
	// blocks; a degraded remote shard returns its last mirrored
	// snapshot with View.Err set.
	View() View
	// Flush blocks until previously applied mutations are reflected in
	// a published generation, returning that generation.
	Flush(ctx context.Context) (uint64, error)
	// Status is the shard's point-in-time worker status; for remote
	// shards it is the last health probe (Status.Err set when stale).
	Status() WorkerStatus
	// Close releases the backend (stops the in-process refresh worker,
	// or the remote mirror's poller — never the remote process itself).
	Close()
}

// Worker is one shard's authoritative serving engine: the shard graph
// kept live by its own refresh.Worker, the append-only global↔local
// translation table, and the ghost-filtering snapshot assembly. It is
// used in-process as the Router's local Backend, and out-of-process as
// the state behind a transport shard server (`ocad -serve-shard`).
type Worker struct {
	id       int
	k        int
	maxNodes int

	// pm is the partition map ownership is evaluated under. Reads are
	// lock-free; SetPartitionMap swaps it and forces an ownership
	// rebuild when the shard's owned set changes.
	pm atomic.Pointer[PartitionMap]

	mu     sync.RWMutex // guards locals/index growth vs readers
	locals []int32
	index  map[int32]int32

	applyMu sync.Mutex // serializes ApplyBatch table reconciliation

	// shipping stashes the table growth of the batch ApplyBatch is
	// currently queueing, for the refresh-level LogBatch hook to attach
	// to the WAL record. Guarded by applyMu: the hook fires inside
	// Enqueue, synchronously under ApplyBatch's critical section.
	shipping Batch

	worker *refresh.Worker

	// ring holds the links of the newest publishes for mirrors to catch
	// up from (see Chain); filled by the publish hook.
	ring Ring
}

// NewWorker computes the shard's first generation from its piece of the
// split graph (running OCA unless the piece has no edges) and starts
// its refresh worker. maxNodes is the global node-set ceiling: local
// growth is always possible up to it, because even a fixed global node
// set grows a shard locally when new ghosts materialize.
func NewWorker(pc Piece, k int, cfg Config, maxNodes int) (*Worker, error) {
	w := &Worker{id: pc.Shard, k: k, maxNodes: maxNodes, locals: pc.Locals}
	if err := w.initMap(cfg, k); err != nil {
		return nil, err
	}
	w.index = make(map[int32]int32, len(w.locals))
	for l, gv := range w.locals {
		w.index[gv] = int32(l)
	}

	pg := pc.Graph
	start := time.Now()
	var (
		cv  *cover.Cover
		res *core.Result
		c   = cfg.OCA.C
	)
	if pg.M() == 0 {
		// No edges: nothing to search, and the spectrum (hence c) is
		// undefined. Serve an empty cover; mutations can populate it.
		cv = cover.NewCover(nil)
		c = 0
	} else {
		if c == 0 {
			var err error
			if c, err = spectral.C(pg, cfg.OCA.Spectral); err != nil {
				return nil, fmt.Errorf("deriving c: %w", err)
			}
		}
		opt := cfg.OCA
		opt.C = c
		var err error
		if res, err = core.Run(pg, opt); err != nil {
			return nil, fmt.Errorf("initial OCA: %w", err)
		}
		cv = res.Cover
	}
	snap := w.assemble(pg, cv, res, c, time.Since(start), nil)

	wopt := cfg.OCA
	wopt.C = c // pin the shard's derived c; RederiveCAfter handles drift
	if cfg.workerOCA != nil {
		wopt = cfg.workerOCA(pc.Shard, wopt)
	}
	w.worker = refresh.New(snap, w.refreshConfig(cfg, wopt))
	w.worker.Start()
	return w, nil
}

// NewWorkerFromSnapshot rebuilds a shard worker from persisted state —
// a recovered snapshot's graph and cover plus its local→global
// translation table — without running OCA: the index, stats and
// ownership metadata are reassembled deterministically and the
// snapshot's generation, sequence and parameter facts carry over. The
// table must be exactly the snapshot graph's node count (the persisted
// prefix); growth beyond it replays through ApplyBatch.
func NewWorkerFromSnapshot(snap *refresh.Snapshot, table []int32, shardID, k int, cfg Config, maxNodes int) *Worker {
	w := &Worker{id: shardID, k: k, maxNodes: maxNodes}
	if err := w.initMap(cfg, k); err != nil {
		// K was validated by every caller already; an invalid recovered
		// map is caught by persist.OpenShard's boot validation before
		// this point.
		panic(err)
	}
	w.locals = append([]int32(nil), table...)
	w.index = make(map[int32]int32, len(w.locals))
	for l, gv := range w.locals {
		w.index[gv] = int32(l)
	}
	restored := w.assemble(snap.Graph, snap.Cover, snap.Result, snap.C, snap.BuildTime, nil)
	restored.Gen, restored.Seq = snap.Gen, snap.Seq
	restored.BuiltAt = snap.BuiltAt
	restored.RebuildMode, restored.DirtyNodes = snap.RebuildMode, snap.DirtyNodes

	wopt := cfg.OCA
	wopt.C = snap.C
	if cfg.workerOCA != nil {
		wopt = cfg.workerOCA(shardID, wopt)
	}
	w.worker = refresh.New(restored, w.refreshConfig(cfg, wopt))
	w.worker.Start()
	return w
}

// refreshConfig assembles the shard worker's refresh.Config, wiring
// the snapshot-assembly hook and translating the shard-level publish
// and WAL hooks onto the refresh-level ones.
func (w *Worker) refreshConfig(cfg Config, wopt core.Options) refresh.Config {
	wcfg := refresh.Config{
		OCA:              wopt,
		DisableWarmStart: cfg.DisableWarmStart,
		Debounce:         cfg.Debounce,
		MaxPending:       cfg.MaxPending,
		// Local growth must always be possible even under a fixed global
		// node set: a cross-shard edge can materialize a new ghost here.
		// A shard's locals never exceed the global node count.
		MaxNodes:             w.maxNodes,
		RederiveCAfter:       cfg.RederiveCAfter,
		IncrementalThreshold: cfg.IncrementalThreshold,
		Assemble:             w.assemble,
	}
	wcfg.OnSwap = func(snap *refresh.Snapshot) {
		w.ring.Push(LinkOf(snap, w.Table()), FullSize(snap))
		if cfg.OnSwap != nil {
			cfg.OnSwap(w.id, snap)
		}
	}
	if cfg.LogBatch != nil {
		wcfg.LogBatch = func(add, remove [][2]int32, seq uint64) error {
			b := w.shipping
			b.Add, b.Remove = add, remove
			return cfg.LogBatch(b, seq)
		}
	}
	return wcfg
}

// initMap installs the worker's initial partition map: Config's (the
// recovered map on restart) or the epoch-0 modulo-K base.
func (w *Worker) initMap(cfg Config, k int) error {
	pm := cfg.PartitionMap
	if pm == nil {
		var err error
		if pm, err = NewPartitionMap(k); err != nil {
			return err
		}
	} else {
		if pm.K != k {
			return fmt.Errorf("shard %d: partition map K=%d does not match shard count %d", w.id, pm.K, k)
		}
		if err := pm.Validate(); err != nil {
			return err
		}
	}
	w.pm.Store(pm)
	return nil
}

// PartitionMap returns the map ownership is currently evaluated under.
func (w *Worker) PartitionMap() *PartitionMap { return w.pm.Load() }

// SetPartitionMap installs a new partition map. When the shard's owned
// set changes under it (donor dropping a migrated range, receiver
// adopting one) a full ownership rebuild is forced, publishing the next
// generation with the new map's filtering; callers needing the rebuild
// reflected synchronously Flush afterwards. Installing a structurally
// identical map is a no-op, so flip broadcasts are idempotent.
func (w *Worker) SetPartitionMap(pm *PartitionMap) error {
	if pm == nil {
		return fmt.Errorf("shard %d: nil partition map", w.id)
	}
	if pm.K != w.k {
		return fmt.Errorf("shard %d: partition map K=%d does not match shard count %d", w.id, pm.K, w.k)
	}
	if err := pm.Validate(); err != nil {
		return err
	}
	old := w.pm.Load()
	if pm.Equal(old) {
		return nil
	}
	w.pm.Store(pm)
	if pm.AffectsShard(old, w.id) {
		if _, err := w.worker.ForceRebuild(); err != nil {
			return err
		}
	}
	return nil
}

// Shard returns the worker's shard index within its K-way partition.
func (w *Worker) Shard() int { return w.id }

// K returns the partition width the worker was built for.
func (w *Worker) K() int { return w.k }

// MaxNodes returns the global node-set ceiling the worker validates
// growth against.
func (w *Worker) MaxNodes() int { return w.maxNodes }

// Lookup resolves a global node id to this shard's local id.
func (w *Worker) Lookup(global int32) (int32, bool) {
	w.mu.RLock()
	l, ok := w.index[global]
	w.mu.RUnlock()
	return l, ok
}

// EnsureLocal returns the local id for a global node, appending a new
// mapping entry when unseen. Callers must serialize (the router's
// mutation lock, or ApplyBatch's); the shard lock still guards against
// concurrent readers.
func (w *Worker) EnsureLocal(global int32) int32 {
	if l, ok := w.Lookup(global); ok {
		return l
	}
	w.mu.Lock()
	l := int32(len(w.locals))
	w.locals = append(w.locals, global)
	w.index[global] = l
	w.mu.Unlock()
	return l
}

// localsPrefix returns the stable local→global table for a graph of n
// nodes. The mapping is append-only, so the prefix never changes after
// capture.
func (w *Worker) localsPrefix(n int) []int32 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.locals[:n:n]
}

// Table returns the full current translation table (a stable snapshot:
// the mapping is append-only) — including entries pending publication,
// i.e. possibly longer than the published generation's node count. The
// transport layer ships it so a reconnecting router can resume table
// replication mid-growth.
func (w *Worker) Table() []int32 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.locals[:len(w.locals):len(w.locals)]
}

// View returns the shard's current published generation with its id
// translation. It never blocks (one atomic snapshot load).
func (w *Worker) View() View {
	return View{Shard: w.id, Snap: w.worker.Snapshot(), lookup: w.Lookup}
}

// Apply queues a batch of local-id mutations on the shard's refresh
// worker. The caller has already translated and validated the batch
// (router fan-out); the worker re-validates defensively. The enqueue
// itself never blocks, so ctx is unused in-process.
func (w *Worker) Apply(_ context.Context, add, remove [][2]int32) error {
	_, _, err := w.worker.Enqueue(add, remove)
	return err
}

// Batch is the unit a mutation fan-out ships to one shard over the
// wire: the translated local-id operations plus the translation-table
// entries appended since the sender's last successful ship (the ghost
// copies the batch materializes). Base is the table length the sender
// believes the shard has; NewLocals holds the global ids of table
// entries [Base, Base+len(NewLocals)). Re-shipping already-applied
// entries is legal (the receiver verifies and skips them), so retrying
// a failed Apply is safe.
type Batch struct {
	Base      int        `json:"base"`
	NewLocals []int32    `json:"new_locals,omitempty"`
	Add       [][2]int32 `json:"add,omitempty"`
	Remove    [][2]int32 `json:"remove,omitempty"`
}

// ApplyBatch reconciles a shipped translation-table update and queues
// the batch's mutations: the wire-side counterpart of the router
// calling EnsureLocal then Apply in-process. It returns the generation
// current at enqueue time (any strictly larger published generation
// includes the batch) and the number of operations queued. A table
// conflict under ReconcileTable's rule reports an error and queues
// nothing; it means a second writer grew the table, which the protocol
// forbids.
func (w *Worker) ApplyBatch(b Batch) (gen uint64, queued int, err error) {
	w.applyMu.Lock()
	defer w.applyMu.Unlock()

	fresh, err := ReconcileTable(w.Table(), w.Lookup, b.Base, b.NewLocals)
	if err != nil {
		return 0, 0, fmt.Errorf("shard %d: %w", w.id, err)
	}
	for _, gv := range fresh {
		w.EnsureLocal(gv)
	}
	// Stash the shipped growth for the WAL hook firing inside Enqueue:
	// the log records Base/NewLocals verbatim so a replay reconciles the
	// table exactly like this call did (re-ships included).
	w.shipping = Batch{Base: b.Base, NewLocals: b.NewLocals}
	gen, queued, err = w.worker.Enqueue(b.Add, b.Remove)
	w.shipping = Batch{}
	return gen, queued, err
}

// Flush blocks until every previously applied mutation is reflected in
// a published generation, returning that generation.
func (w *Worker) Flush(ctx context.Context) (uint64, error) {
	snap, err := w.worker.Flush(ctx)
	if err != nil {
		return 0, err
	}
	return snap.Gen, nil
}

// Status is the shard's point-in-time worker status with its active c.
// It never blocks on rebuilds.
func (w *Worker) Status() WorkerStatus {
	return WorkerStatus{
		Shard:  w.id,
		C:      w.worker.Snapshot().C,
		Status: w.worker.Status(),
	}
}

// Chain returns the links a mirror at generation since needs to reach
// head, a generation this worker published (the one a caller loaded
// with Snapshot), or false when it no longer holds them all. The last
// link is read off head itself: Flush returns before head's publish hook
// has filled the ring, but every earlier hook has returned by the time
// head is visible, so a mirror one generation behind the newest never
// misses.
func (w *Worker) Chain(since uint64, head *refresh.Snapshot) ([]*Link, bool) {
	last := LinkOf(head, w.Table())
	if last == nil || since >= head.Gen {
		return nil, false
	}
	links, ok := w.ring.Chain(since, head.Gen-1)
	if !ok {
		return nil, false
	}
	return append(links, last), true
}

// Snapshot returns the current published generation (the refresh-level
// view; View adds the id translation).
func (w *Worker) Snapshot() *refresh.Snapshot { return w.worker.Snapshot() }

// MaxPending is the backlog capacity of the shard's refresh worker,
// the denominator behind backlog-derived Retry-After hints.
func (w *Worker) MaxPending() int { return w.worker.MaxPending() }

// Close stops the shard's refresh worker. Reads keep serving the last
// published generation; mutations fail afterwards.
func (w *Worker) Close() { w.worker.Close() }
