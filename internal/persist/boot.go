package persist

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/refresh"
	"repro/internal/shard"
	"repro/internal/wal"
)

// BootNodes resolves the node count of the input graph a deployment was
// bootstrapped from and its growth ceiling, given the segment recovery
// found (nil on a cold start), and returns the input graph if it had to
// read it. cmd/ocad's bootNodes is the one in service.
type BootNodes func(seg *Segment) (g *graph.Graph, globalNodes, maxNodes int, err error)

// Single is the single-graph role's data directory, recovered; the
// serving layer takes the store (server.Config.Persist) and boots it
// (Store.Boot) with its first generation.
type Single struct {
	Store     *Store            // nil without a data directory
	Graph     *graph.Graph      // the input graph; nil when the directory answered
	Recovered *refresh.Snapshot // nil on a cold start
	MaxNodes  int               // the growth ceiling

	st          *State
	globalNodes int
}

// OpenSingle opens the single-graph role's data directory (none when
// opts.Dir is empty), resolves its node bounds and replays what it
// holds under rcfg, the live worker's rules (MaxNodes: what nodes
// resolves). The recovered graph may be served straight from the
// segment's mapping, which stays open for the life of the process.
func OpenSingle(opts Options, rcfg refresh.Config, nodes BootNodes) (*Single, error) {
	d, err := openDir(opts, nodes)
	if err != nil {
		return nil, err
	}
	rcfg.MaxNodes = d.MaxNodes
	if d.Recovered, err = replaySingle(d.st, rcfg); err != nil {
		d.release()
		return nil, err
	}
	return d, nil
}

// openDir is what both roles' boots share: open and load opts.Dir
// (nothing when it is empty), then resolve the node bounds through
// nodes and stamp them on the store. On error nothing stays open.
func openDir(opts Options, nodes BootNodes) (d *Single, err error) {
	d = &Single{st: &State{}} // the zero State is a cold start
	if opts.Dir != "" {
		if d.Store, err = Open(opts); err != nil {
			return nil, err
		}
		if d.st, err = d.Store.Load(); err != nil {
			d.Store.Close()
			return nil, err
		}
	}
	if d.Graph, d.globalNodes, d.MaxNodes, err = nodes(d.st.Segment); err != nil {
		d.release()
		return nil, err
	}
	if d.Store != nil {
		d.Store.SetNodeBounds(d.globalNodes, d.MaxNodes)
	}
	return d, nil
}

// release closes what openDir opened, for a boot that fails before it
// serves anything.
func (d *Single) release() {
	if d.Store != nil {
		d.Store.Close()
	}
	if d.st.Segment != nil {
		d.st.Segment.Close()
	}
}

// Shard is a started shard worker over its data directory, with the
// identity the router handshake cross-checks (transport.ServerConfig).
type Shard struct {
	Worker                *shard.Worker
	Store                 *Store // nil without a data directory
	GlobalNodes, MaxNodes int
	Recovered             bool // served the directory's state, not a cold split
}

// OpenShard boots shard opts.Shard of opts.Shards, started: the one
// place that holds a durable shard's boot order (docs/PERSISTENCE.md,
// Recovery algorithm). Open and load opts.Dir; resolve the node bounds
// (nodes reads the input graph only if the directory cannot answer);
// check the persisted partition map against opts.Shards; replay the
// directory, or cold, split the input and run OCA on this piece; seal
// and begin the WAL (Store.Boot). Then every accepted batch is logged
// before it is acknowledged and every publish before cfg.OnSwap runs,
// and Close seals the final snapshot. An empty opts.Dir boots without
// durability; logf receives the progress lines; on error nothing stays
// open.
func OpenShard(opts Options, cfg shard.Config, nodes BootNodes, logf func(format string, args ...any)) (_ *Shard, err error) {
	id, k := opts.Shard, opts.Shards
	d, err := openDir(opts, func(seg *Segment) (*graph.Graph, int, int, error) {
		g, globalNodes, maxNodes, err := nodes(seg)
		// Even a fixed global node set grows a shard locally when new
		// ghosts materialize, up to every global node.
		return g, globalNodes, max(maxNodes, globalNodes), err
	})
	if err != nil {
		return nil, err
	}
	s := &Shard{Store: d.Store, GlobalNodes: d.globalNodes, MaxNodes: d.MaxNodes, Recovered: d.st.Segment != nil}
	defer func() {
		if err != nil {
			if s.Worker != nil {
				s.Worker.Close()
			}
			d.release()
		}
	}()
	logf("serving shard %d of %d (%d global nodes, growth ceiling %d)", id, k, s.GlobalNodes, s.MaxNodes)
	if s.Store != nil {
		cfg = s.durable(cfg, logf)
	}
	if s.Recovered {
		if cfg.PartitionMap, err = d.st.PartitionMap(); err != nil {
			return nil, err
		}
		if pm := cfg.PartitionMap; pm != nil {
			if pm.K != k {
				return nil, fmt.Errorf("shard %d: persisted partition map is %d-way at epoch %d but -shards is %d — restart with -shards %d, or point -data-dir at a fresh directory to resplit",
					id, pm.K, pm.Epoch, k, pm.K)
			}
			logf("shard %d recovered partition map at epoch %d (%d overrides)", id, pm.Epoch, len(pm.Ranges))
		}
		snap, table, err := ReplayShard(d.st, id, k, cfg, s.MaxNodes)
		if err != nil {
			return nil, err
		}
		s.Worker = shard.NewWorkerFromSnapshot(snap, table, id, k, cfg, s.MaxNodes)
		rs := s.Store.Stats().Recovered
		logf("shard %d recovered generation %d from %s (%s, %d batches replayed)", id, snap.Gen, opts.Dir, rs.Source, rs.ReplayedBatches)
	} else {
		piece, err := shard.SplitOne(d.Graph, k, id)
		if err != nil {
			return nil, err
		}
		// The input graph is garbage once split: OCA's allocations below
		// may reuse it, which keeps the boot's peak RSS at one graph.
		d.Graph = nil
		logf("running OCA for shard %d (%d local nodes, seed %d)...", id, piece.Graph.N(), cfg.OCA.Seed)
		start := time.Now()
		if s.Worker, err = shard.NewWorker(piece, k, cfg, s.MaxNodes); err != nil {
			return nil, err
		}
		logf("shard %d cover ready in %v", id, time.Since(start).Round(time.Millisecond))
	}
	if s.Store != nil {
		if err = s.Store.Boot(s.state()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// durable installs the store's hooks on cfg: each accepted batch is
// logged, and each publish before the caller's OnSwap sees it.
func (s *Shard) durable(cfg shard.Config, logf func(string, ...any)) shard.Config {
	store, onSwap := s.Store, cfg.OnSwap
	cfg.LogBatch = func(b shard.Batch, seq uint64) error {
		return store.LogEdgeBatch(wal.EdgeBatch{Seq: seq, Base: b.Base, NewLocals: b.NewLocals, Add: b.Add, Remove: b.Remove})
	}
	cfg.OnSwap = func(id int, sn *refresh.Snapshot) {
		// s.Worker is set before anything can reach the worker, so no
		// mutation (and hence no publish) precedes it.
		if err := store.OnPublish(sn, s.Worker.Table()[:sn.Graph.N()]); err != nil {
			logf("persist: publishing generation %d: %v", sn.Gen, err)
		}
		if onSwap != nil {
			onSwap(id, sn)
		}
	}
	return cfg
}

// state is the served generation with the table prefix its segment
// persists.
func (s *Shard) state() (*refresh.Snapshot, []int32) {
	snap := s.Worker.Snapshot()
	return snap, s.Worker.Table()[:snap.Graph.N()]
}

// OnMapChange is the transport.ServerConfig hook for a final partition
// map install: record the new epoch and reseal, so a crash right after
// the flip recovers at the flipped epoch.
func (s *Shard) OnMapChange(pm *shard.PartitionMap) error {
	if s.Store == nil {
		return nil
	}
	s.Store.SetPartition(pm.Epoch, pm.Encode())
	return s.Store.Seal(s.state())
}

// Close stops the worker and, with a store, seals the final snapshot
// (a failure only costs the next boot a replay) and closes the store.
// The recovered segment stays mapped: served snapshots may read it.
func (s *Shard) Close() error {
	s.Worker.Close()
	if s.Store == nil {
		return nil
	}
	defer s.Store.Close()
	return s.Store.Seal(s.state())
}
