package persist

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/refresh"
	"repro/internal/shard"
	"repro/internal/wal"
)

// The shard the sharded histories host: the second of two, so its piece
// of any connected graph holds owned nodes (odd global ids) and ghosts.
const histShard, histK = 1, 2

// history is a live deployment of one role — a K=1 refresh worker or a
// ghost-filtering shard worker — logging to a Store, with a record of
// every generation it published, so that a recovery can be held against
// the live state it claims to reproduce. Nothing in it sleeps: the test
// goroutine waits on the publish hook.
//
// It boots through Store.Boot like every role but installs the store's
// hooks itself rather than through OpenShard: its publish hook can run
// a gated writer between a generation becoming visible and the store
// logging that publish (gateNext) — the window a batch arriving during
// a rebuild lands in, which OpenShard's order (log the publish, then
// the caller's hook) never opens on demand.
type history struct {
	t        testing.TB
	sharded  bool
	dir      string
	maxNodes int
	opts     Options        // store options, Dir aside
	rcfg     refresh.Config // K=1 worker config, hooks unset
	scfg     shard.Config   // shard worker config, hooks and map unset

	store *Store
	rw    *refresh.Worker
	sw    *shard.Worker
	n     int // K=1: node count including growth queued but not yet published

	// What the publish hook (worker goroutine) shares with the test.
	mu     sync.Mutex
	cond   *sync.Cond
	gens   map[uint64]generation // every generation published or booted into
	prev   *refresh.Snapshot     // the generation the next publish patches
	gate   func()                // runs once inside the next publish hook, before the store logs that publish
	hooked uint64                // newest generation whose publish hook has returned
}

// generation is the live state of one published generation.
type generation struct {
	snap  *refresh.Snapshot
	table []int32
}

func newHistory(t testing.TB, sharded bool, maxNodes int, opts Options) *history {
	h := &history{t: t, sharded: sharded, dir: t.TempDir(), maxNodes: maxNodes, opts: opts, gens: map[uint64]generation{}}
	h.cond = sync.NewCond(&h.mu)
	h.opts.MaxNodes = maxNodes
	if sharded {
		h.opts.Shard, h.opts.Shards = histShard, histK
	}
	return h
}

// startSingle cold-boots a K=1 history over g: run OCA, seal generation
// 1, begin the WAL, serve.
func startSingle(t testing.TB, g *graph.Graph, rcfg refresh.Config, maxNodes int, opts Options) *history {
	h := newHistory(t, false, maxNodes, opts)
	h.rcfg = rcfg
	h.rcfg.MaxNodes = maxNodes
	res, err := core.Run(g, rcfg.OCA)
	if err != nil {
		t.Fatalf("initial cover: %v", err)
	}
	snap := refresh.NewSnapshot(g, res.Cover, res, res.C, 0)
	snap.Gen = 1
	h.rcfg.OCA.C = res.C // as localProvider pins the resolved c
	h.store = h.open(h.dir)
	h.serve(snap, nil, nil)
	return h
}

// startShard cold-boots a sharded history over one piece of a split.
func startShard(t testing.TB, piece shard.Piece, scfg shard.Config, maxNodes int, opts Options) *history {
	h := newHistory(t, true, maxNodes, opts)
	h.scfg = scfg
	h.store = h.open(h.dir)
	w, err := shard.NewWorker(piece, histK, h.liveShardConfig(nil), maxNodes)
	if err != nil {
		t.Fatal(err)
	}
	h.sw = w
	h.began(w.Snapshot(), w.Table())
	return h
}

func (h *history) open(dir string) *Store {
	o := h.opts
	o.Dir = dir
	s, err := Open(o)
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { s.Close() })
	return s
}

func (h *history) liveShardConfig(pm *shard.PartitionMap) shard.Config {
	cfg := h.scfg
	cfg.PartitionMap = pm
	cfg.LogBatch = func(b shard.Batch, seq uint64) error {
		return h.store.LogEdgeBatch(wal.EdgeBatch{Seq: seq, Base: b.Base, NewLocals: b.NewLocals, Add: b.Add, Remove: b.Remove})
	}
	cfg.OnSwap = func(_ int, sn *refresh.Snapshot) { h.published(sn) }
	return cfg
}

// serve starts the live worker over a cold-built or recovered snapshot
// and finishes the boot: seal, then begin the WAL (began).
func (h *history) serve(snap *refresh.Snapshot, table []int32, pm *shard.PartitionMap) {
	if h.sharded {
		h.sw = shard.NewWorkerFromSnapshot(snap, table, histShard, histK, h.liveShardConfig(pm), h.maxNodes)
		h.began(h.sw.Snapshot(), h.sw.Table())
		return
	}
	h.startSingleWorker(snap, h.rcfg)
	h.began(h.rw.Snapshot(), nil)
}

// startSingleWorker starts the K=1 worker over snap under cfg plus the
// store hooks.
func (h *history) startSingleWorker(snap *refresh.Snapshot, cfg refresh.Config) {
	cfg.LogBatch = func(add, remove [][2]int32, seq uint64) error { return h.store.LogBatch(add, remove, seq) }
	cfg.OnSwap = h.published
	h.rw = refresh.New(snap, cfg)
	h.rw.Start()
	h.n = snap.Graph.N()
}

func (h *history) began(snap *refresh.Snapshot, table []int32) {
	h.t.Helper()
	table = table[:len(table):len(table)]
	if h.sharded {
		table = table[:snap.Graph.N()]
	}
	if err := h.store.Boot(snap, table); err != nil {
		h.t.Fatal(err)
	}
	h.mu.Lock()
	h.gens[snap.Gen] = generation{snap, slices.Clone(table)}
	h.prev, h.hooked = snap, snap.Gen
	h.mu.Unlock()
}

// published is the publish hook: check the patch against the cover it
// produced, let a gated writer in, log the publish, record the state.
func (h *history) published(sn *refresh.Snapshot) {
	h.mu.Lock()
	prev, gate := h.prev, h.gate
	h.prev, h.gate = sn, nil
	h.mu.Unlock()
	if sn.Patch == nil {
		h.t.Errorf("generation %d was published without a patch", sn.Gen)
	} else if got := sn.Patch.ApplyCover(prev.Cover); !sameCommunities(got.Communities, sn.Cover.Communities) {
		h.t.Errorf("generation %d (%s): its patch applied to generation %d gives %d communities that are not the %d published",
			sn.Gen, sn.RebuildMode, prev.Gen, got.Len(), sn.Cover.Len())
	}
	if gate != nil {
		gate()
	}
	var table []int32
	if h.sharded {
		table = h.sw.Table()[:sn.Graph.N()]
	}
	if err := h.store.OnPublish(sn, table); err != nil {
		h.t.Errorf("publishing generation %d: %v", sn.Gen, err)
	}
	h.mu.Lock()
	h.gens[sn.Gen] = generation{sn, slices.Clone(table)}
	h.hooked = sn.Gen
	h.mu.Unlock()
	h.cond.Broadcast()
}

// gateNext arranges for f to run inside the next publish hook, after
// the generation is visible and before the store logs it: a writer
// gated there lands its batch in the WAL ahead of that publish's
// marker, which is what a batch arriving while a rebuild runs does.
func (h *history) gateNext(f func()) {
	h.mu.Lock()
	h.gate = f
	h.mu.Unlock()
}

// mutate queues one batch without waiting for it. On a shard the edges
// are in local ids, newGlobals extends the translation table and reship
// re-sends that many entries the shard already has in front of them.
func (h *history) mutate(add, remove [][2]int32, newGlobals []int32, reship int) error {
	if h.sharded {
		table := h.sw.Table()
		base := len(table) - reship
		_, _, err := h.sw.ApplyBatch(shard.Batch{
			Base: base, NewLocals: append(slices.Clone(table[base:]), newGlobals...), Add: add, Remove: remove,
		})
		return err
	}
	_, _, err := h.rw.Enqueue(add, remove)
	for _, e := range add {
		h.n = max(h.n, int(e[0])+1, int(e[1])+1)
	}
	return err
}

// must is mutate on the test goroutine.
func (h *history) must(add, remove [][2]int32, newGlobals []int32, reship int) {
	h.t.Helper()
	if err := h.mutate(add, remove, newGlobals, reship); err != nil {
		h.t.Fatalf("mutating (add %v remove %v grow %v): %v", add, remove, newGlobals, err)
	}
}

// flush waits until everything queued is published and its publish hook
// has returned — the marker is in the WAL — and returns that generation.
func (h *history) flush() *refresh.Snapshot {
	h.t.Helper()
	var err error
	if h.sharded {
		_, err = h.sw.Flush(context.Background())
	} else {
		_, err = h.rw.Flush(context.Background())
	}
	if err != nil {
		h.t.Fatalf("flush: %v", err)
	}
	snap := h.live()
	h.mu.Lock()
	for h.hooked < snap.Gen {
		h.cond.Wait()
	}
	h.mu.Unlock()
	return snap
}

// live is the generation the role serves now.
func (h *history) live() *refresh.Snapshot {
	if h.sharded {
		return h.sw.Snapshot()
	}
	return h.rw.Snapshot()
}

// nodes is the node count including growth queued but not yet
// published: the next unused node id.
func (h *history) nodes() int {
	if h.sharded {
		return len(h.sw.Table())
	}
	return h.n
}

// kill stops the deployment the way kill -9 leaves its files: the
// worker is gone (Close returns once its last publish hook has run),
// the WAL is closed, nothing is sealed.
func (h *history) kill() {
	if h.sharded {
		h.sw.Close()
	} else {
		h.rw.Close()
	}
	h.store.Close()
}

// recovery is what a boot finds in a data directory.
type recovery struct {
	store *Store
	st    *State
	// replayed and table are replaySingle's / ReplayShard's results.
	replayed *refresh.Snapshot
	table    []int32
	// serving is the snapshot the role's worker then serves: replayed
	// itself at K=1, the shard worker's assembly of it otherwise.
	serving *refresh.Snapshot
	sw      *shard.Worker
}

// close releases what recoverAt opened, for the recoveries a test makes
// by the dozen; the rest wait for the test's cleanup.
func (r recovery) close() {
	if r.sw != nil {
		r.sw.Close()
	}
	r.store.Close()
}

// recoverAt runs recovery over dir up to, not including, the boot seal:
// Open, Load, Replay, and on a shard the serving worker's assembly.
// cfgEdit, when set, edits the replay config (the engine's, where it
// runs).
func (h *history) recoverAt(dir string, cfgEdit func(*core.Options)) recovery {
	h.t.Helper()
	r := recovery{store: h.open(dir)}
	var err error
	if r.st, err = r.store.Load(); err != nil {
		h.t.Fatal(err)
	}
	if r.st.Segment == nil {
		h.t.Fatalf("no segment in %s", dir)
	}
	if !h.sharded {
		cfg := h.rcfg
		if cfgEdit != nil {
			cfgEdit(&cfg.OCA)
		}
		if r.replayed, err = replaySingle(r.st, cfg); err != nil {
			h.t.Fatal(err)
		}
		r.serving = r.replayed
		return r
	}
	cfg := h.scfg
	if cfgEdit != nil {
		cfgEdit(&cfg.OCA)
	}
	if cfg.PartitionMap, err = r.st.PartitionMap(); err != nil {
		h.t.Fatal(err)
	}
	if r.replayed, r.table, err = ReplayShard(r.st, histShard, histK, cfg, h.maxNodes); err != nil {
		h.t.Fatal(err)
	}
	r.sw = shard.NewWorkerFromSnapshot(r.replayed, r.table, histShard, histK, cfg, h.maxNodes)
	h.t.Cleanup(r.sw.Close)
	r.serving = r.sw.Snapshot()
	return r
}

// boot restarts the killed deployment over its own directory in
// OpenShard's order — recover, seal, begin — and reports what recovery
// found and whether the boot sealed a segment.
func (h *history) boot() (r recovery, sealed bool) {
	h.t.Helper()
	r = h.recoverAt(h.dir, nil)
	before := r.store.Generations()
	h.store = r.store
	var pm *shard.PartitionMap
	if h.sharded {
		pm = r.sw.PartitionMap()
		r.sw.Close() // the serving worker below logs; this one does not
	}
	h.serve(r.replayed, r.table, pm)
	return r, !slices.Equal(before, h.store.Generations())
}

// sameCommunities is reflect.DeepEqual over community lists, except
// that no communities are no communities however the slice is spelled.
func sameCommunities[T any](a, b []T) bool {
	return (len(a) == 0 && len(b) == 0) || reflect.DeepEqual(a, b)
}

// checkSame holds a recovered generation to the live one it must equal:
// the cover community for community under the same ids, every scalar
// fact but the two clock readings, graph, index, overlap stats, and on
// a shard the translation table and the ownership Meta.
func (h *history) checkSame(what string, r recovery, want generation) {
	h.t.Helper()
	got, live := r.serving, want.snap
	if !sameCommunities(got.Cover.Communities, live.Cover.Communities) {
		h.t.Fatalf("%s: recovered cover has %d communities that are not the live generation %d's %d, id for id",
			what, got.Cover.Len(), live.Gen, live.Cover.Len())
	}
	gi, li := got.Info(), live.Info()
	gi.BuildMillis, gi.BuiltAtUnixMs, li.BuildMillis, li.BuiltAtUnixMs = 0, 0, 0, 0
	if gi != li {
		h.t.Errorf("%s: recovered info %+v, live %+v", what, gi, li)
	}
	if (got.Result == nil) != (live.Result == nil) {
		h.t.Errorf("%s: recovered generation has a Result: %v, live: %v", what, got.Result != nil, live.Result != nil)
	}
	for v := int32(0); int(v) < live.Graph.N() && int(v) < got.Graph.N(); v++ {
		if !slices.Equal(got.Graph.Neighbors(v), live.Graph.Neighbors(v)) {
			h.t.Fatalf("%s: recovered adjacency of node %d is %v, live %v", what, v, got.Graph.Neighbors(v), live.Graph.Neighbors(v))
		}
		if !slices.Equal(got.Index.Communities(v), live.Index.Communities(v)) {
			h.t.Fatalf("%s: recovered memberships of node %d are %v, live %v", what, v, got.Index.Communities(v), live.Index.Communities(v))
		}
	}
	if got.Stats != live.Stats {
		h.t.Errorf("%s: recovered overlap stats %+v, live %+v", what, got.Stats, live.Stats)
	}
	if h.sharded {
		if !slices.Equal(r.table, want.table) {
			h.t.Errorf("%s: recovered table %v, live %v", what, r.table, want.table)
		}
		if !reflect.DeepEqual(got.Aux, live.Aux) {
			h.t.Errorf("%s: recovered ownership meta %+v, live %+v", what, got.Aux, live.Aux)
		}
	}
}

// checkFolded holds a recovery to "the log described it all": every
// publish of the tail read back, none derived, and no worker started to
// do it — a shard's replayed snapshot comes back bare, where a worker
// would have attached its Meta and built an index.
func (h *history) checkFolded(what string, r recovery) {
	h.t.Helper()
	rs := r.store.Stats().Recovered
	if rs.PatchedPublishes != len(r.st.Publishes) || rs.DerivedPublishes != 0 {
		h.t.Errorf("%s: %d publishes in the tail, %d folded and %d derived; want all folded", what, len(r.st.Publishes), rs.PatchedPublishes, rs.DerivedPublishes)
	}
	if h.sharded && len(r.st.Publishes) > 0 && (r.replayed.Aux != nil || r.replayed.Index != nil) {
		h.t.Errorf("%s: a fully described tail went through a shard worker (Aux %T, index %v)", what, r.replayed.Aux, r.replayed.Index != nil)
	}
}

// copyDir copies a data directory's files into a fresh one.
func copyDir(t testing.TB, dir string) string {
	t.Helper()
	out := t.TempDir()
	for name, raw := range dirBytes(t, dir) {
		if err := os.WriteFile(filepath.Join(out, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func dirBytes(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}

// walFrame frames one record the way the wal package does.
func walFrame(rec wal.Record) []byte {
	body := append([]byte{rec.Type}, rec.Payload...)
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(rec.Payload)))
	out = binary.LittleEndian.AppendUint32(out, wal.Checksum(body))
	return append(out, body...)
}

// rewriteWAL replaces the WAL at path with the given records under the
// same header, followed by torn — the leading bytes of a frame that a
// crash cut short.
func rewriteWAL(t testing.TB, path string, recs []wal.Record, torn []byte) {
	t.Helper()
	hdr, _, _, err := wal.ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), wal.MagicLog[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(hdr.Version))
	out = binary.LittleEndian.AppendUint64(out, hdr.BaseGen)
	for _, rec := range recs {
		out = append(out, walFrame(rec)...)
	}
	if err := os.WriteFile(path, append(out, torn...), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readWAL(t testing.TB, path string) []wal.Record {
	t.Helper()
	_, recs, _, err := wal.ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}
