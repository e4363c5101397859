package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/refresh"
	"repro/internal/shard"
	"repro/internal/spectral"
)

// localProvider is the in-process single-graph SnapshotProvider: one
// graph kept live by one refresh.Worker, served under the identity id
// translation (shard.SingleView). It owns everything that is specific
// to that engine — where generation 1 comes from (an OCA run, eager or
// lazy; a preloaded cover; a recovered snapshot), resolving the
// inner-product parameter exactly once, and, with Config.Persist, the
// durability hooks around the worker — so the Server in front of it is
// the same HTTP layer it is over a shard.Router.
type localProvider struct {
	g   *graph.Graph // construction-time graph (generation 1's base)
	cfg Config

	// Where generation 1 comes from when not an OCA run over g: a
	// preloaded cover (NewWithCover) or a recovered snapshot
	// (NewWithSnapshot). At most one is set.
	preCv    *cover.Cover
	restored *refresh.Snapshot

	// onSwap, when set, runs on the worker goroutine after each publish
	// (the search cache's carry-forward), after the durability hook.
	onSwap func(shard int, snap *refresh.Snapshot)

	cOnce  sync.Once
	cErr   error
	cReady atomic.Bool
	c      float64 // inner-product parameter used for searches

	coverOnce  sync.Once
	coverReady atomic.Bool
	coverErr   error
	worker     *refresh.Worker

	closeMu sync.Mutex
	closed  bool
}

// start resolves what is free to resolve up front — an explicit c is
// validated (a bad value would otherwise surface as a 500 on every
// request instead of a launch failure), a recovered snapshot's c is
// adopted so restarting never re-derives the spectrum and answers
// searches with the parameter the served cover was computed under —
// and, unless lazy, builds the first generation.
func (p *localProvider) start(lazy bool) error {
	switch {
	case p.cfg.OCA.C != 0:
		if err := p.ensureC(); err != nil {
			return err
		}
	case p.restored != nil && p.restored.C != 0:
		p.cOnce.Do(func() {
			p.c = p.restored.C
			p.cReady.Store(true)
		})
	}
	if lazy {
		return nil
	}
	return p.ensureCover()
}

// ensureC resolves the inner-product parameter exactly once: the
// configured override, or -1/λmin from a Lanczos run over the
// construction-time graph. It is separate from ensureCover so a lazy
// server can answer /v1/search without first paying for a full OCA run.
func (p *localProvider) ensureC() error {
	p.cOnce.Do(func() {
		c := p.cfg.OCA.C
		if c == 0 {
			var err error
			if c, err = spectral.C(p.g, p.cfg.OCA.Spectral); err != nil {
				p.cErr = fmt.Errorf("server: computing c: %w", err)
				return
			}
		} else if c < 0 || c >= 1 {
			p.cErr = fmt.Errorf("server: c=%g out of range (0, 1)", c)
			return
		}
		p.c = c
		p.cReady.Store(true)
	})
	return p.cErr
}

// resolveC returns the parameter searches fall back to when the served
// snapshot carries none (a preloaded cover, a lazy server before its
// first build), deriving it on first use.
func (p *localProvider) resolveC() (float64, error) {
	if err := p.ensureC(); err != nil {
		return 0, err
	}
	return p.c, nil
}

// firstSnapshot produces generation 1.
func (p *localProvider) firstSnapshot() (*refresh.Snapshot, error) {
	start := time.Now()
	switch {
	case p.restored != nil:
		// Recovery: the snapshot arrives fully built (segment load + WAL
		// replay); there is nothing to compute.
		return p.restored, nil
	case p.preCv != nil:
		// A preloaded cover does not need c; deriving it stays deferred
		// to the first /v1/search request.
		var snapC float64
		if p.cReady.Load() {
			snapC = p.c
		}
		return refresh.NewSnapshot(p.g, p.preCv, nil, snapC, time.Since(start)), nil
	}
	if err := p.ensureC(); err != nil {
		return nil, err
	}
	opt := p.cfg.OCA
	opt.C = p.c // single source of truth for the parameter
	res, err := core.Run(p.g, opt)
	if err != nil {
		return nil, err
	}
	return refresh.NewSnapshot(p.g, res.Cover, res, p.c, time.Since(start)), nil
}

// RefreshConfig is the refresh.Config the single-graph server's worker
// rebuilds under, less what only the running server adds: the resolved
// c and the persistence and cache hooks. cmd/ocad hands the same value
// to persist.OpenSingle, so whatever recovery has to derive again is
// derived under the live worker's rules.
func (cfg Config) RefreshConfig() refresh.Config {
	rederive := cfg.RederiveCAfter
	if cfg.OCA.C != 0 {
		// An explicitly pinned c is never re-derived behind the
		// operator's back.
		rederive = 0
	}
	return refresh.Config{
		OCA:                  cfg.OCA,
		DisableWarmStart:     cfg.DisableWarmStart,
		Debounce:             cfg.RefreshDebounce,
		MaxPending:           cfg.MaxPendingMutations,
		MaxNodes:             cfg.MaxNodes,
		RederiveCAfter:       rederive,
		IncrementalThreshold: cfg.IncrementalThreshold,
	}
}

// ShardConfig is RefreshConfig for each shard worker — the in-process
// router's, and a shard server's (persist.OpenShard) — less the hooks.
func (cfg Config) ShardConfig() shard.Config {
	rc := cfg.RefreshConfig()
	return shard.Config{OCA: rc.OCA, DisableWarmStart: rc.DisableWarmStart, Debounce: rc.Debounce, MaxPending: rc.MaxPending,
		MaxNodes: rc.MaxNodes, RederiveCAfter: rc.RederiveCAfter, IncrementalThreshold: rc.IncrementalThreshold}
}

// ensureCover builds the first snapshot and starts the refresh worker,
// exactly once.
func (p *localProvider) ensureCover() error {
	p.coverOnce.Do(func() {
		var snap *refresh.Snapshot
		if snap, p.coverErr = p.firstSnapshot(); p.coverErr != nil {
			return
		}
		opt := p.cfg.OCA
		if p.cReady.Load() {
			// Pin the resolved c for rebuilds: re-deriving the spectrum
			// per mutation batch would dominate refresh cost, and edge
			// churn moves λmin only marginally. A preloaded cover with
			// no resolved c leaves OCA.C = 0, so the first rebuild
			// derives it from the then-current graph.
			opt.C = p.c
		}
		rcfg := p.cfg.RefreshConfig()
		rcfg.OCA = opt
		store := p.cfg.Persist
		if store != nil {
			if snap.Gen == 0 {
				snap.Gen = 1 // the normalization refresh.New would apply
			}
			if err := store.Boot(snap, nil); err != nil {
				p.coverErr = fmt.Errorf("server: booting the data directory: %w", err)
				return
			}
			rcfg.LogBatch = store.LogBatch
		}
		if store != nil || p.onSwap != nil {
			// Durability markers first, then cache maintenance (prune
			// superseded generations, carry survivors across incremental
			// publishes).
			rcfg.OnSwap = func(sn *refresh.Snapshot) {
				if store != nil {
					// Publishing proceeds on failure — readers keep getting
					// fresh state — but the store records the durability gap
					// and /healthz surfaces it.
					_ = store.OnPublish(sn, nil)
				}
				if p.onSwap != nil {
					p.onSwap(0, sn)
				}
			}
		}
		w := refresh.New(snap, rcfg)
		p.closeMu.Lock()
		p.worker = w
		closed := p.closed
		p.closeMu.Unlock()
		if closed {
			w.Close()
		} else {
			w.Start()
		}
		p.coverReady.Store(true)
	})
	return p.coverErr
}

// snapshot returns the current generation, building the first one on
// demand.
func (p *localProvider) snapshot() (*refresh.Snapshot, error) {
	if err := p.ensureCover(); err != nil {
		return nil, err
	}
	return p.worker.Snapshot(), nil
}

// unbuiltView is the provider's state before its first generation
// exists, as a generation-0 view: the construction-time graph and
// nothing else. Endpoints that must never wait for a lazy OCA run
// (/healthz, /v1/search) answer from it.
func (p *localProvider) unbuiltView() shard.View {
	return shard.SingleView(&refresh.Snapshot{Graph: p.g, MaxDegree: p.g.MaxDegree()})
}

func (p *localProvider) NumShards() int { return 1 }

func (p *localProvider) Ready() bool { return p.coverReady.Load() }

func (p *localProvider) Views() ([]shard.View, error) {
	snap, err := p.snapshot()
	if err != nil {
		return nil, err
	}
	return []shard.View{shard.SingleView(snap)}, nil
}

func (p *localProvider) ViewFor(global int32) (shard.View, int32, bool, error) {
	if global < 0 {
		return shard.View{}, 0, false, nil
	}
	if int(global) >= p.g.N() {
		// Beyond the construction-time node set. Growth can only have
		// happened through Enqueue (which builds the first cover), so an
		// unready cover — or an id past the growth cap — means a cheap
		// 404 without forcing a lazy OCA run.
		if int(global) >= p.cfg.MaxNodes || !p.coverReady.Load() {
			return shard.View{}, 0, false, nil
		}
	}
	snap, err := p.snapshot()
	if err != nil {
		return shard.View{}, 0, false, err
	}
	view := shard.SingleView(snap)
	local, ok := view.Local(global)
	return view, local, ok, nil
}

func (p *localProvider) ShardOf(int32) int { return 0 }

func (p *localProvider) NodeBound() int {
	if p.coverReady.Load() {
		return p.worker.Snapshot().Graph.N()
	}
	return p.g.N()
}

// coverBuildError marks a failed (lazy) cover build inside Enqueue so
// handleEdges can answer 500 instead of treating it as a 400 validation
// failure.
type coverBuildError struct{ err error }

func (e coverBuildError) Error() string { return e.err.Error() }
func (e coverBuildError) Unwrap() error { return e.err }

func (p *localProvider) Enqueue(_ context.Context, add, remove [][2]int32) (shard.GenVector, int, []int, error) {
	// Mutating a lazy server materializes the first cover: there must
	// be a generation 1 for the rebuild to start from.
	if err := p.ensureCover(); err != nil {
		return nil, 0, nil, coverBuildError{err}
	}
	gen, queued, err := p.worker.Enqueue(add, remove)
	return shard.GenVector{{Shard: 0, Gen: gen}}, queued, []int{0}, err
}

func (p *localProvider) Flush(ctx context.Context, _ []int) (shard.GenVector, error) {
	snap, err := p.worker.Flush(ctx)
	if err != nil {
		return nil, err
	}
	return shard.GenVector{{Shard: 0, Gen: snap.Gen}}, nil
}

// Statuses reports the worker's status with the parameter searches run
// under: the served snapshot's c, or — while a preloaded cover's
// snapshot still carries none — the one a search has since derived.
func (p *localProvider) Statuses() []shard.WorkerStatus {
	if !p.coverReady.Load() {
		return nil
	}
	c := p.worker.Snapshot().C
	if c == 0 && p.cReady.Load() {
		c = p.c
	}
	return []shard.WorkerStatus{{Shard: 0, C: c, Status: p.worker.Status()}}
}

// Close stops the refresh worker and, with a store, seals the final
// snapshot so the next start recovers with a pure segment load, no WAL
// replay, then closes the store. Reads keep serving the last published
// snapshot.
func (p *localProvider) Close() {
	p.closeMu.Lock()
	p.closed = true
	w := p.worker
	p.closeMu.Unlock()
	store := p.cfg.Persist
	if w != nil {
		w.Close()
		if store != nil && p.coverReady.Load() {
			// The worker is stopped, so this snapshot is final. A failure
			// only costs the next start a replay; the store records it.
			_ = store.Seal(w.Snapshot(), nil)
		}
	}
	if store != nil {
		store.Close()
	}
}
