package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/refresh"
	"repro/internal/resilience"
	"repro/internal/shard"
)

// Client is one remote shard's Backend: it replicates the shard's
// translation table (shipping growth with each mutation fan-out),
// mirrors the shard's published snapshots so reads stay local and
// lock-free, and maps transport failures to shard.ErrUnavailable so
// the serving layer degrades explicitly instead of hanging.
//
// Consistency model: reads serve the mirror, refreshed by a background
// generation poller — bounded staleness, like the in-process path's
// debounce. Flush records the returned generation as a floor; a View
// whose mirror is behind the floor resynchronizes synchronously (with
// a deadline) before answering, so a client that waited for its
// mutations reads its own writes through this router. A shard that
// cannot be reached within the request timeout yields views and
// statuses with an explicit error — partial results, never a hang.
type Client struct {
	base    string // http://host:port
	shardID int
	k       int

	hc      *http.Client
	reqTO   time.Duration
	snapTO  time.Duration
	pollIvl time.Duration

	tabMu   sync.RWMutex
	locals  []int32
	index   map[int32]int32
	shipped int // table entries the server has acknowledged

	// mirror is read lock-free; every writer load-modify-stores under
	// mirMu so a concurrent poller status refresh cannot clobber a
	// just-synced newer snapshot (generation vectors must never
	// regress).
	mirror   atomic.Pointer[mirrorState]
	mirMu    sync.Mutex
	minGen   atomic.Uint64 // read-your-writes floor set by Flush
	lastFail atomic.Int64  // unix nanos of the last failed contact

	syncMu sync.Mutex // singleflight for snapshot sync

	// links, set on a replica's mirror only, keeps the links its chain
	// syncs applied so the replica can re-serve them (nil elsewhere).
	links *shard.Ring

	// Mirror counters: syncs by kind, bytes they read, and the remote's
	// own count of chain requests it had to answer in full (last health
	// probe).
	chainSyncs  atomic.Uint64
	fullSyncs   atomic.Uint64
	mirrorBytes atomic.Uint64
	chainMisses atomic.Uint64

	// draining mirrors the remote's advertised shutdown state (from the
	// last health probe) so a replica set stops routing reads to a
	// member that is about to go away.
	draining atomic.Bool

	// remoteMap mirrors the remote's advertised partition map (from the
	// last health probe): the epoch a router's boot validation compares,
	// and what a replica re-serves on GET /shard/v1/map.
	remoteMap atomic.Pointer[MapResponse]

	// breaker trips on consecutive transport-level failures so a dead
	// backend costs a fast-fail, not a timeout; the generation poller is
	// its half-open probe vehicle. retryer re-runs idempotent reads
	// (lookup, snapshot) under the shared budget — never apply, which
	// stays at-least-once via table reconciliation. deadlineExceeded
	// counts RPCs abandoned to a deadline or caller hang-up.
	breaker          *resilience.Breaker
	retryer          *resilience.Retryer
	budget           *resilience.Budget
	deadlineExceeded atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	started  atomic.Bool
	done     chan struct{}
}

// mirrorState is the atomically swapped read state: the last decoded
// generation, the last health probe, and the degradation error (nil
// when the shard was reachable at last contact).
type mirrorState struct {
	snap   *refresh.Snapshot
	status shard.WorkerStatus
	err    error
	// instance is the server instance snap's generation numbering
	// belongs to (HeaderSnapshotInstance).
	instance string
}

// ClientConfig tunes one shard client. Zero values use the defaults
// noted per field.
type ClientConfig struct {
	// RequestTimeout bounds health, apply, and lookup RPCs (default
	// 5s); SnapshotTimeout bounds a full snapshot transfer (default
	// 60s). Flush is bounded by the caller's context instead.
	RequestTimeout  time.Duration
	SnapshotTimeout time.Duration
	// PollInterval is the generation poller's cadence (default 100ms).
	PollInterval time.Duration
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.SnapshotTimeout <= 0 {
		c.SnapshotTimeout = 60 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 100 * time.Millisecond
	}
	return c
}

// newClient performs no I/O; Dial handshakes and starts the poller.
func newClient(base string, shardID, k int, cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	budget := resilience.NewBudget(0, 0) // package defaults
	return &Client{
		base:    base,
		shardID: shardID,
		k:       k,
		hc:      &http.Client{},
		reqTO:   cfg.RequestTimeout,
		snapTO:  cfg.SnapshotTimeout,
		pollIvl: cfg.PollInterval,
		index:   make(map[int32]int32),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		breaker: resilience.NewBreaker(resilience.BreakerConfig{}),
		retryer: resilience.NewRetryer(resilience.RetryConfig{}, budget),
		budget:  budget,
	}
}

// Addr returns the client's base URL.
func (c *Client) Addr() string { return c.base }

// Draining reports whether the remote advertised a shutdown in progress
// at its last successful health probe.
func (c *Client) Draining() bool { return c.draining.Load() }

// MirrorGen returns the mirrored snapshot's generation (0 before the
// first sync) without triggering any I/O.
func (c *Client) MirrorGen() uint64 {
	if m := c.mirror.Load(); m != nil && m.snap != nil {
		return m.snap.Gen
	}
	return 0
}

// tableLen returns the replicated translation-table length.
func (c *Client) tableLen() int {
	c.tabMu.RLock()
	defer c.tabMu.RUnlock()
	return len(c.locals)
}

// tableCopy returns a snapshot copy of the replicated translation
// table, safe to encode without holding the lock.
func (c *Client) tableCopy() []int32 {
	c.tabMu.RLock()
	defer c.tabMu.RUnlock()
	return append([]int32(nil), c.locals...)
}

// unavailable wraps a transport failure with the sentinel the serving
// layer maps to 503.
func (c *Client) unavailable(err error) error {
	return fmt.Errorf("shard %d (%s): %w: %v", c.shardID, c.base, shard.ErrUnavailable, err)
}

// errBreakerOpen marks a fast-fail: the RPC was refused locally because
// the backend's circuit breaker is open. Kept in the error chain (the
// retry classifier must see it: fast-fails never retry).
var errBreakerOpen = errors.New("circuit breaker open")

// unavailableCause is unavailable with the cause kept inspectable by
// errors.Is — used for local refusals the caller branches on.
func (c *Client) unavailableCause(err error) error {
	return fmt.Errorf("shard %d (%s): %w: %w", c.shardID, c.base, shard.ErrUnavailable, err)
}

// noteFailure classifies a transport-level failure for the breaker. A
// caller hang-up (context.Canceled) says nothing about the backend's
// health, so it only counts toward deadlineExceeded; a timeout counts
// both ways; everything else is pure backend failure evidence.
func (c *Client) noteFailure(err error) {
	if errors.Is(err, context.Canceled) {
		c.deadlineExceeded.Add(1)
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		c.deadlineExceeded.Add(1)
	}
	c.breaker.Failure()
}

// retryable decides whether a failed idempotent read may re-run:
// transport-level unavailability retries, a breaker fast-fail never
// does (the breaker's verdict overrides the retry policy), and protocol
// errors (conflict, bad request, backlog) surface immediately.
func (c *Client) retryable(err error) bool {
	return errors.Is(err, shard.ErrUnavailable) && !errors.Is(err, errBreakerOpen)
}

// doJSON posts a JSON body and decodes a JSON response, translating
// protocol error codes to the sentinel errors the router and serving
// layer branch on.
func (c *Client) doJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	if !c.breaker.Allow() {
		return c.unavailableCause(errBreakerOpen)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderProtocol, strconv.Itoa(Version))
	stampDeadline(req, ctx)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.noteFailure(err)
		return c.unavailable(err)
	}
	c.breaker.Success()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er errorResponse
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&er)
		switch er.Code {
		case CodeBacklogFull:
			return fmt.Errorf("shard %d: %w", c.shardID, refresh.ErrBacklogFull)
		case CodeClosed:
			return fmt.Errorf("shard %d: %w", c.shardID, refresh.ErrClosed)
		case CodeTableConflict:
			return fmt.Errorf("shard %d: %w: %s", c.shardID, shard.ErrTableConflict, er.Error)
		}
		return fmt.Errorf("shard %d: %s %s: http %d: %s", c.shardID, path, c.base, resp.StatusCode, er.Error)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// health probes the remote generation and worker status. Deliberately
// not gated by the breaker: the poller's health probe IS the breaker's
// recovery signal (its outcome feeds Success/Failure), and gating it
// would leave an open breaker no way back.
func (c *Client) health(ctx context.Context) (Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathHealth, nil)
	if err != nil {
		return Health{}, err
	}
	req.Header.Set(HeaderProtocol, strconv.Itoa(Version))
	stampDeadline(req, ctx)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.noteFailure(err)
		return Health{}, c.unavailable(err)
	}
	c.breaker.Success()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Health{}, c.unavailable(fmt.Errorf("health: http %d", resp.StatusCode))
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return Health{}, c.unavailable(fmt.Errorf("decoding health: %v", err))
	}
	if len(h.Map) > 0 {
		c.remoteMap.Store(&MapResponse{Epoch: h.Epoch, Map: h.Map})
	}
	c.chainMisses.Store(h.ChainMisses)
	return h, nil
}

// RemoteMap returns the partition map the remote advertised at its last
// successful health probe (nil before first contact, or when the remote
// predates rebalancing and advertises none).
func (c *Client) RemoteMap() *MapResponse { return c.remoteMap.Load() }

// syncSnapshot fetches the remote snapshot if newer than the mirror,
// swapping the mirror on success and recording the failure (with the
// previous snapshot retained for identification) on error. Singleflight:
// concurrent callers wait for one transfer.
func (c *Client) syncSnapshot() error { return c.syncSnapshotCtx(context.Background()) }

// syncSnapshotCtx is syncSnapshot bounded by a parent context besides
// the transfer timeout — Dial passes its handshake deadline so
// ConnectTimeout really bounds router startup.
func (c *Client) syncSnapshotCtx(parent context.Context) error {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()

	// Negative cache: when the shard just failed, report the recorded
	// error instead of paying another timeout per caller — a down shard
	// costs one failed contact per poll interval, and degraded requests
	// stay fast instead of queueing behind serial timeouts.
	cur := c.mirror.Load()
	if cur != nil && cur.err != nil &&
		time.Since(time.Unix(0, c.lastFail.Load())) < c.pollIvl {
		return cur.err
	}
	var (
		base     *refresh.Snapshot
		instance string
		since    uint64
	)
	if cur != nil {
		base, instance = cur.snap, cur.instance
	}
	if base != nil {
		since = base.Gen
	}

	ctx, cancel := context.WithTimeout(parent, c.snapTO)
	defer cancel()
	url := c.base + PathSnapshot
	if since > 0 {
		url += "?since=" + strconv.FormatUint(since, 10)
	}
	// The transfer is idempotent (a pure read of the published
	// generation), so transient failures — including a torn stream
	// mid-decode — retry under the shared budget.
	var (
		snap        *refresh.Snapshot
		table       []int32
		links       []*shard.Link
		notModified bool
	)
	err := c.retryer.Do(ctx, c.retryable, func() error {
		if !c.breaker.Allow() {
			return c.unavailableCause(errBreakerOpen)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		req.Header.Set(HeaderProtocol, strconv.Itoa(Version))
		if since > 0 {
			// A server that cannot (or does not) answer with the publishes
			// since our generation sends the full transfer.
			req.Header.Set("Accept", ContentTypeSnapshotChain+", "+ContentTypeSnapshot)
			req.Header.Set(HeaderSnapshotInstance, instance)
		}
		stampDeadline(req, ctx)
		resp, err := c.hc.Do(req)
		if err != nil {
			c.noteFailure(err)
			return c.unavailable(err)
		}
		c.breaker.Success()
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusNotModified:
			notModified = true
			return nil
		case http.StatusOK:
		default:
			return c.unavailable(fmt.Errorf("snapshot: http %d", resp.StatusCode))
		}
		data, err := readBody(resp.Body, resp.ContentLength)
		c.mirrorBytes.Add(uint64(len(data)))
		got := resp.Header.Get(HeaderSnapshotInstance)
		switch {
		case err != nil:
		case resp.Header.Get("Content-Type") != ContentTypeSnapshotChain:
			if snap, table, err = readFull(data, resp.Header, c.shardID, c.k); err == nil {
				instance = got
			}
		case got != instance:
			err = fmt.Errorf("snapshot chain from instance %q onto a mirror of instance %q", got, instance)
		default:
			snap, table, links, err = readChain(data, resp.Header, base, c.tableCopy(), c.k, since)
		}
		if err != nil {
			return c.unavailable(err)
		}
		return nil
	})
	if err != nil {
		return c.fail(err)
	}
	if notModified {
		c.clearErr()
		return nil
	}
	c.adoptTable(table)
	if links != nil {
		c.chainSyncs.Add(1)
	} else {
		c.fullSyncs.Add(1)
	}
	if c.links != nil {
		// Re-served by a replica: links before the mirror moves, so a
		// reader of the new mirror finds them.
		if links == nil {
			c.links.Reset()
		}
		full := shard.FullSize(snap)
		for _, l := range links {
			c.links.Push(l, full)
		}
	}
	// Carry the last health probe's status forward (the poller refreshes
	// it); a successful sync clears any degradation.
	c.mirMu.Lock()
	st := shard.WorkerStatus{Shard: c.shardID, C: snap.C}
	if cur = c.mirror.Load(); cur != nil {
		st = cur.status
		st.Err = ""
	}
	if st.Status.Gen < snap.Gen {
		st.Status.Gen = snap.Gen
	}
	st.C = snap.C
	c.mirror.Store(&mirrorState{snap: snap, status: st, instance: instance})
	c.mirMu.Unlock()
	return nil
}

// fail records a degraded mirror (keeping the stale snapshot and last
// status for identification) and returns err.
func (c *Client) fail(err error) error {
	c.lastFail.Store(time.Now().UnixNano())
	c.mirMu.Lock()
	cur := c.mirror.Load()
	ns := &mirrorState{err: err}
	if cur != nil {
		ns.snap, ns.status, ns.instance = cur.snap, cur.status, cur.instance
	}
	ns.status.Err = err.Error()
	c.mirror.Store(ns)
	c.mirMu.Unlock()
	return err
}

// clearErr marks the shard reachable again without changing the
// mirrored snapshot.
func (c *Client) clearErr() {
	c.mirMu.Lock()
	defer c.mirMu.Unlock()
	cur := c.mirror.Load()
	if cur == nil || cur.err == nil {
		return
	}
	st := cur.status
	st.Err = ""
	c.mirror.Store(&mirrorState{snap: cur.snap, status: st, instance: cur.instance})
}

// adoptTable reconciles a received full table into the local replica.
// The replica may be ahead (entries not yet shipped); received entries
// must be a prefix-consistent subset, which Dial and the single-router
// protocol guarantee.
func (c *Client) adoptTable(table []int32) {
	c.tabMu.Lock()
	defer c.tabMu.Unlock()
	for i := len(c.locals); i < len(table); i++ {
		c.locals = append(c.locals, table[i])
		c.index[table[i]] = int32(i)
	}
	if len(table) > c.shipped {
		c.shipped = len(table)
	}
}

// startPolling launches the background generation poller (once).
func (c *Client) startPolling() {
	if c.started.CompareAndSwap(false, true) {
		go c.poll()
	}
}

// poll is the background generation poller: health probes at the
// configured cadence, snapshot sync when the remote generation moved.
func (c *Client) poll() {
	defer close(c.done)
	t := time.NewTicker(c.pollIvl)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		// The poller is the breaker's probe vehicle: while open, skip the
		// doomed RPC until the cooldown admits a half-open probe; the
		// probe's health outcome then closes or reopens the breaker.
		if c.breaker.State() != resilience.Closed && !c.breaker.Probe() {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.reqTO)
		h, err := c.health(ctx)
		cancel()
		if err != nil {
			_ = c.fail(err)
			continue
		}
		c.draining.Store(h.Draining)
		// A reachable health endpoint alone does not clear degradation:
		// if the snapshot transfer is what keeps failing, the error (and
		// the negative cache it feeds) must survive until a sync
		// succeeds, or stale reads would be served silently.
		c.mirMu.Lock()
		cur := c.mirror.Load()
		ns := &mirrorState{status: h.Status}
		if cur != nil {
			ns.snap, ns.err, ns.instance = cur.snap, cur.err, cur.instance
		}
		if ns.err != nil {
			ns.status.Err = ns.err.Error()
		}
		c.mirror.Store(ns)
		c.mirMu.Unlock()
		if ns.snap == nil || h.Snapshot.Gen > ns.snap.Gen || ns.err != nil {
			_ = c.syncSnapshot()
		}
	}
}

// --- shard.Backend ---

// Lookup resolves a global id in the replicated translation table.
func (c *Client) Lookup(global int32) (int32, bool) {
	c.tabMu.RLock()
	l, ok := c.index[global]
	c.tabMu.RUnlock()
	return l, ok
}

// EnsureLocal appends a new replica entry for an unseen global id. The
// router's mutation lock serializes callers; the append ships to the
// shard with the next Apply.
func (c *Client) EnsureLocal(global int32) int32 {
	if l, ok := c.Lookup(global); ok {
		return l
	}
	c.tabMu.Lock()
	l := int32(len(c.locals))
	c.locals = append(c.locals, global)
	c.index[global] = l
	c.tabMu.Unlock()
	return l
}

// Apply ships the translated batch plus any table growth since the
// last acknowledged ship. Bounded by the caller's context as well as
// the request timeout, so a canceled client request cancels the
// downstream RPC. This layer never auto-retries apply — delivery is
// at-least-once only because the server reconciles re-shipped table
// entries; the caller owns any re-send.
func (c *Client) Apply(ctx context.Context, add, remove [][2]int32) error {
	c.tabMu.RLock()
	batch := shard.Batch{
		Base:      c.shipped,
		NewLocals: c.locals[c.shipped:len(c.locals):len(c.locals)],
		Add:       add,
		Remove:    remove,
	}
	c.tabMu.RUnlock()
	ctx, cancel := context.WithTimeout(ctx, c.reqTO)
	defer cancel()
	var resp ApplyResponse
	if err := c.doJSON(ctx, PathApply, ApplyRequest{Protocol: Version, Batch: batch}, &resp); err != nil {
		return err
	}
	c.tabMu.Lock()
	if s := batch.Base + len(batch.NewLocals); s > c.shipped {
		c.shipped = s
	}
	c.tabMu.Unlock()
	return nil
}

// Ingest ships slice-transfer edges over the dedicated migration path.
// Identical semantics to Apply — translated local-id operations plus
// pending table growth — on a separate endpoint so migration traffic is
// distinguishable from normal writes. Implements the router's optional
// slicer extension.
func (c *Client) Ingest(ctx context.Context, add, remove [][2]int32) error {
	c.tabMu.RLock()
	batch := shard.Batch{
		Base:      c.shipped,
		NewLocals: c.locals[c.shipped:len(c.locals):len(c.locals)],
		Add:       add,
		Remove:    remove,
	}
	c.tabMu.RUnlock()
	ctx, cancel := context.WithTimeout(ctx, c.reqTO)
	defer cancel()
	var resp ApplyResponse
	if err := c.doJSON(ctx, PathIngest, ApplyRequest{Protocol: Version, Batch: batch}, &resp); err != nil {
		return err
	}
	c.tabMu.Lock()
	if s := batch.Base + len(batch.NewLocals); s > c.shipped {
		c.shipped = s
	}
	c.tabMu.Unlock()
	return nil
}

// InstallPartitionMap pushes a partition map to the remote shard.
// Implements the router's mapInstaller extension: pending installs are
// transfer-window state the remote adopts but does not persist; a final
// install returns only after the remote has flushed the resulting
// ownership rebuild and persisted the map. Bounded by the caller's ctx
// (cancelling the admin rebalance call cancels in-flight installs) and
// the snapshot timeout — a final install can carry a full rebuild.
func (c *Client) InstallPartitionMap(ctx context.Context, pm *shard.PartitionMap, pending bool) error {
	ctx, cancel := context.WithTimeout(ctx, c.snapTO)
	defer cancel()
	var resp MapResponse
	return c.doJSON(ctx, PathMap, MapRequest{Protocol: Version, Map: pm.Encode(), Pending: pending}, &resp)
}

// View returns the mirrored generation. When the mirror is behind the
// read-your-writes floor (a Flush saw a newer generation) it
// resynchronizes first; when the shard is marked unreachable the view
// carries the stale mirror with an explicit error immediately —
// recovery detection belongs to the background poller, so degraded
// reads never queue behind per-request transfer timeouts.
func (c *Client) View() shard.View {
	m := c.mirror.Load()
	floor := c.minGen.Load()
	if m == nil || (m.err == nil && (m.snap == nil || m.snap.Gen < floor)) {
		_ = c.syncSnapshot()
		m = c.mirror.Load()
	}
	var (
		snap *refresh.Snapshot
		err  error
	)
	if m != nil {
		snap, err = m.snap, m.err
	}
	if err == nil && snap == nil {
		err = c.unavailable(fmt.Errorf("no snapshot mirrored yet"))
	}
	if err == nil && snap.Gen < floor {
		err = c.unavailable(fmt.Errorf("mirror at generation %d behind flushed generation %d", snap.Gen, floor))
	}
	return shard.RemoteView(c.shardID, snap, c.Lookup, err)
}

// Flush blocks until the shard has published everything applied before
// the call, synchronizes the mirror to the returned generation and then
// raises the read-your-writes floor to it. Raising the floor last keeps
// concurrent reads on the previous mirror while the sync runs instead of
// queueing them behind it; if the sync fails, the raised floor makes the
// next View resynchronize.
func (c *Client) Flush(ctx context.Context) (uint64, error) {
	var resp FlushResponse
	if err := c.doJSON(ctx, PathFlush, FlushRequest{Protocol: Version}, &resp); err != nil {
		return 0, err
	}
	// Bring the mirror forward now so the caller's next read — the
	// /v1/edges wait=true contract — sees the flushed generation without
	// paying a sync on the read path. Bounded by the caller's context:
	// a client that already hung up shouldn't fund a snapshot transfer.
	_ = c.syncSnapshotCtx(ctx)
	for {
		cur := c.minGen.Load()
		if resp.Generation <= cur || c.minGen.CompareAndSwap(cur, resp.Generation) {
			break
		}
	}
	return resp.Generation, nil
}

// Status returns the last health probe; Err marks it stale when the
// shard is unreachable.
func (c *Client) Status() shard.WorkerStatus {
	if m := c.mirror.Load(); m != nil {
		return m.status
	}
	return shard.WorkerStatus{Shard: c.shardID, Err: "no contact yet"}
}

// LookupRemote answers a membership batch directly from the remote
// shard's current snapshot, bypassing the mirror. No public request
// takes this path — the router reads its mirrors — it is the protocol's
// direct-read verb (docs/PROTOCOL.md) for tooling and tests.
// Idempotent, so transient transport failures retry (jittered backoff,
// shared budget); breaker fast-fails and protocol errors do not.
func (c *Client) LookupRemote(ctx context.Context, ids []int32, members bool) (LookupResponse, error) {
	var resp LookupResponse
	err := c.retryer.Do(ctx, c.retryable, func() error {
		actx, cancel := context.WithTimeout(ctx, c.reqTO)
		defer cancel()
		resp = LookupResponse{}
		return c.doJSON(actx, PathLookup, LookupRequest{Protocol: Version, IDs: ids, Members: members}, &resp)
	})
	return resp, err
}

// BreakerOpen reports whether the circuit breaker currently refuses
// regular traffic (open or half-open). Replica sets exclude such
// members from read routing before paying a timeout.
func (c *Client) BreakerOpen() bool { return c.breaker.State() != resilience.Closed }

// ResilienceStats snapshots the client's breaker, retry, deadline and
// mirror counters for /healthz and /debug/metrics.
func (c *Client) ResilienceStats() resilience.Stats {
	return resilience.Stats{
		BreakerState:         c.breaker.State().String(),
		BreakerTrips:         c.breaker.Trips(),
		BreakerFastFails:     c.breaker.FastFails(),
		Retries:              c.retryer.Retries(),
		RetryBudgetExhausted: c.budget.Exhausted(),
		DeadlineExceeded:     c.deadlineExceeded.Load(),
		MirrorChainSyncs:     c.chainSyncs.Load(),
		MirrorFullSyncs:      c.fullSyncs.Load(),
		MirrorBytes:          c.mirrorBytes.Load(),
		ChainMisses:          c.chainMisses.Load(),
	}
}

// Close stops the poller. The remote process keeps running.
func (c *Client) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	if c.started.Load() {
		<-c.done
	}
}
