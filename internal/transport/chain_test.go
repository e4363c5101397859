package transport

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lfr"
	"repro/internal/refresh"
	"repro/internal/shard"
	"repro/internal/wal"
)

// chainFixture is shard 1 of 2 of a small LFR graph behind a shard
// server whose handler can be swapped (a restart) or wrapped (a build
// that ignores Accept, a peer that tampers with chains), followed by a
// replica that syncs only when told to.
type chainFixture struct {
	t       *testing.T
	cfg     shard.Config
	w       *shard.Worker
	ss      *ShardServer
	handler atomic.Value // http.Handler
	ts      *httptest.Server
	rs      *ReplicaServer
	global  int32 // next unused global id
}

const chainMaxNodes = 400

func newChainFixture(t *testing.T, wrap func(http.Handler) http.Handler) *chainFixture {
	t.Helper()
	bench, err := lfr.Generate(lfr.Params{N: 150, AvgDeg: 10, MaxDeg: 20, Mu: 0.05, MinCom: 15, MaxCom: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := shard.SplitOne(bench.Graph, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := &chainFixture{t: t, cfg: shard.Config{OCA: core.Options{Seed: 5, C: 0.5}, Debounce: time.Hour, IncrementalThreshold: 0.5}, global: int32(bench.Graph.N())}
	w, err := shard.NewWorker(pc, 2, f.cfg, chainMaxNodes)
	if err != nil {
		t.Fatal(err)
	}
	f.serve(w)
	f.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		h := f.handler.Load().(http.Handler)
		if wrap != nil {
			h = wrap(h)
		}
		h.ServeHTTP(rw, r)
	}))
	if f.rs, err = NewReplica(context.Background(), f.ts.URL, ReplicaConfig{
		Client: ClientConfig{PollInterval: time.Hour}, ConnectTimeout: 10 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		f.rs.Close()
		f.ts.Close()
		f.w.Close()
	})
	return f
}

// serve puts w behind the fixture's server, as a restarted process.
func (f *chainFixture) serve(w *shard.Worker) {
	if f.w != nil {
		f.w.Close()
	}
	f.w, f.ss = w, NewShardServer(w, ServerConfig{GlobalNodes: 150, MaxNodes: chainMaxNodes})
	f.handler.Store(f.ss.Handler())
}

// restart replaces the worker with one restored from its published
// state: same generation, an empty link ring.
func (f *chainFixture) restart() {
	f.t.Helper()
	snap := f.w.Snapshot()
	f.serve(shard.NewWorkerFromSnapshot(snap, f.w.Table()[:snap.Graph.N()], 1, 2, f.cfg, chainMaxNodes))
}

// publish applies one batch — a new node wired to two old ones, and on
// odd rounds an edge removed — and flushes it.
func (f *chainFixture) publish(round int) *refresh.Snapshot {
	f.t.Helper()
	table := f.w.Table()
	l := int32(len(table))
	b := shard.Batch{Base: len(table), NewLocals: []int32{f.global}, Add: [][2]int32{{int32(round % 7), l}, {int32(round%7 + 1), l}}}
	f.global++
	if round%2 == 1 {
		b.Remove = [][2]int32{{int32(round%7 + 1), l - 1}}
	}
	if _, _, err := f.w.ApplyBatch(b); err != nil {
		f.t.Fatal(err)
	}
	if _, err := f.w.Flush(context.Background()); err != nil {
		f.t.Fatal(err)
	}
	return f.w.Snapshot()
}

// sync brings the replica up to date and checks its mirror serves the
// primary's head generation — every fact but the clock readings, which
// a chain does not carry.
func (f *chainFixture) sync() {
	f.t.Helper()
	if err := f.rs.Sync(context.Background()); err != nil {
		f.t.Fatalf("sync: %v", err)
	}
	got, _ := f.rs.Mirror()
	want := f.w.Snapshot()
	wi, gi := want.Info(), got.Info()
	wi.BuildMillis, wi.BuiltAtUnixMs, gi.BuildMillis, gi.BuiltAtUnixMs = 0, 0, 0, 0
	if gi != wi || !reflect.DeepEqual(got.Cover.Communities, want.Cover.Communities) || !reflect.DeepEqual(got.Graph, want.Graph) {
		f.t.Fatalf("mirror at %+v, primary at %+v", gi, wi)
	}
}

// get issues a raw snapshot request with the given ?since and Accept,
// quoting the server's instance.
func (f *chainFixture) get(since uint64, accept string) (string, []byte) {
	f.t.Helper()
	req, err := http.NewRequest(http.MethodGet, f.ts.URL+PathSnapshot+"?since="+strconv.FormatUint(since, 10), nil)
	if err != nil {
		f.t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	req.Header.Set(HeaderSnapshotInstance, f.ss.instance)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		f.t.Fatalf("GET snapshot since %d: status %d, %v", since, resp.StatusCode, err)
	}
	return resp.Header.Get("Content-Type"), body
}

// TestSnapshotWithoutAcceptIsFullStream: a request that does not ask for
// the chain — every client before chains existed — gets the full
// transfer, byte for byte the segment of the head.
func TestSnapshotWithoutAcceptIsFullStream(t *testing.T) {
	f := newChainFixture(t, nil)
	for i := 0; i < 3; i++ {
		f.publish(i)
	}
	head := f.w.Snapshot()
	data, err := fullBody(1, 2, head, f.w.Table())
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.NewBuffer(data)
	for _, accept := range []string{"", ContentTypeSnapshot, "*/*"} {
		ct, body := f.get(head.Gen-1, accept)
		if ct != ContentTypeSnapshot || !bytes.Equal(body, want.Bytes()) {
			t.Errorf("Accept %q: %s, %d bytes; want the %d-byte full stream", accept, ct, len(body), want.Len())
		}
	}
	if ct, _ := f.get(head.Gen-1, ContentTypeSnapshotChain); ct != ContentTypeSnapshotChain {
		t.Errorf("a request accepting the chain got %s", ct)
	}
	if n := f.ss.misses.Load(); n != 0 {
		t.Errorf("%d chain misses counted for requests that never asked for a chain", n)
	}
}

// TestMirrorReadsFullStreamFromServerIgnoringAccept: against a server
// that does not know the chain media type (modelled by dropping Accept
// before it), the mirror decodes the full stream it is sent instead.
func TestMirrorReadsFullStreamFromServerIgnoringAccept(t *testing.T) {
	f := newChainFixture(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Header.Del("Accept")
			h.ServeHTTP(w, r)
		})
	})
	for i := 0; i < 4; i++ {
		f.publish(i)
		f.sync()
	}
	if st := f.rs.MirrorStats(); st.MirrorChainSyncs != 0 || st.MirrorFullSyncs != 5 || st.MirrorBytes == 0 {
		t.Errorf("mirror counters %+v, want 5 full syncs (handshake + 4) and no chain", st)
	}
}

// TestChainAfterFlushNeverMisses: a mirror one generation behind asks
// right after the flush returned — before the head's publish hook may
// have filled the ring — and always gets the chain.
func TestChainAfterFlushNeverMisses(t *testing.T) {
	f := newChainFixture(t, nil)
	for i := 0; i < 40; i++ {
		head := f.publish(i)
		if ct, _ := f.get(head.Gen-1, ContentTypeSnapshotChain); ct != ContentTypeSnapshotChain {
			t.Fatalf("publish %d: ?since=head-1 answered %s", head.Gen, ct)
		}
		if i%4 == 3 {
			f.sync() // four publishes behind: a four-link chain
		}
	}
	st := f.rs.MirrorStats()
	if n := f.ss.misses.Load(); n != 0 || st.MirrorChainSyncs != 10 || st.MirrorFullSyncs != 1 {
		t.Errorf("%d misses, mirror counters %+v; want none, 10 chain syncs, 1 full (the handshake)", n, st)
	}
}

// TestChainMissFallsBackAndCounts: across a restart a mirror's chain
// request misses — whether it is behind (the links it needs died with
// the old worker's ring) or current (the new instance's generation
// numbering is not the one it mirrored: a generation recovered from a
// log that did not describe it is another cover under the same
// number) — and gets the full stream; both sides count it, and the next
// publish is a chain again.
func TestChainMissFallsBackAndCounts(t *testing.T) {
	f := newChainFixture(t, nil)
	// misses is the current server's count: a restart starts a new one.
	wantMirror := func(what string, misses uint64, full, chain uint64) {
		t.Helper()
		if n, st := f.ss.misses.Load(), f.rs.MirrorStats(); n != misses || st.MirrorFullSyncs != full || st.MirrorChainSyncs != chain {
			t.Fatalf("%s: %d misses, mirror counters %+v; want %d misses, %d full syncs, %d chain", what, n, st, misses, full, chain)
		}
	}
	f.publish(0)
	f.sync()
	f.restart() // the mirror is current
	f.publish(1)
	f.sync()
	wantMirror("current across a restart", 1, 2, 1)
	f.publish(2)
	f.sync()
	wantMirror("after the miss", 1, 2, 2)
	f.publish(3) // never mirrored; its link dies with the restart
	f.restart()
	f.publish(4)
	f.sync()
	wantMirror("behind across a restart", 1, 3, 2)
	f.publish(5)
	f.sync()
	wantMirror("after the miss", 1, 3, 3)
	// The replica re-serves what it holds: the link it folded, not the
	// ones its full sync skipped.
	serve := func(since uint64) string {
		req := httptest.NewRequest(http.MethodGet, PathSnapshot+"?since="+strconv.FormatUint(since, 10), nil)
		req.Header.Set("Accept", ContentTypeSnapshotChain)
		req.Header.Set(HeaderSnapshotInstance, f.ss.instance)
		rec := httptest.NewRecorder()
		f.rs.Handler().ServeHTTP(rec, req)
		if got := rec.Header().Get(HeaderSnapshotInstance); got != f.ss.instance {
			t.Errorf("replica re-serves instance %q, its primary is %q", got, f.ss.instance)
		}
		return rec.Header().Get("Content-Type")
	}
	if ct := serve(f.rs.Gen() - 1); ct != ContentTypeSnapshotChain {
		t.Errorf("replica answered ?since=head-1 with %s", ct)
	}
	if ct := serve(f.rs.Gen() - 3); ct != ContentTypeSnapshot || f.rs.misses.Load() != 1 {
		t.Errorf("replica answered a chain across its full sync with %s (%d misses)", ct, f.rs.misses.Load())
	}
}

// TestHostileChainRejected: a chain whose records name what the
// mirror's generation does not have — a community id, a member past the
// node range, a table entry contradicting the mirror's, growth its table
// entries do not back — or that is not a whole excerpt of the
// publishes since the mirror's generation is refused whole; the mirror
// stays where it was and catches up once the peer behaves.
func TestHostileChainRejected(t *testing.T) {
	var tamper atomic.Value // func(*wal.Excerpt, *uint64) []byte
	f := newChainFixture(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			edit, _ := tamper.Load().(func(*wal.Excerpt, *uint64) []byte)
			if edit == nil || r.URL.Path != PathSnapshot {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			if rec.Header().Get("Content-Type") != ContentTypeSnapshotChain {
				t.Errorf("tampering proxy got %s, want a chain", rec.Header().Get("Content-Type"))
				return
			}
			hdr, recs, _, err := wal.ReadLog(rec.Body)
			if err != nil {
				t.Error(err)
				return
			}
			x, err := wal.Scan(recs)
			if err != nil {
				t.Error(err)
				return
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			body := edit(&x, &hdr.BaseGen)
			if body == nil {
				s := wal.NewStream(hdr.BaseGen)
				for i := range x.Publishes {
					if i < len(x.Tail) {
						_ = s.AppendEdgeBatch(x.Tail[i])
					}
					_ = s.AppendPatchedPublish(x.Patches[i])
				}
				body = s.Bytes()
			}
			_, _ = w.Write(body)
		})
	})
	for name, edit := range map[string]func(*wal.Excerpt, *uint64) []byte{
		"bad community id": func(x *wal.Excerpt, _ *uint64) []byte {
			x.Patches[0].Removed = append(x.Patches[0].Removed, 1<<20)
			return nil
		},
		"member out of range": func(x *wal.Excerpt, _ *uint64) []byte {
			b := x.Tail[0]
			x.Patches[0].Fresh = append(x.Patches[0].Fresh, []int32{0, int32(b.Base + len(b.NewLocals))})
			return nil
		},
		"table conflict": func(x *wal.Excerpt, _ *uint64) []byte {
			x.Tail[0].Base, x.Tail[0].NewLocals = 0, []int32{1 << 20}
			return nil
		},
		"growth past the table": func(x *wal.Excerpt, _ *uint64) []byte {
			x.Tail[0].NewLocals = nil
			return nil
		},
		"publish without its batch": func(x *wal.Excerpt, _ *uint64) []byte {
			x.Tail = nil
			return nil
		},
		"based at another generation": func(_ *wal.Excerpt, since *uint64) []byte {
			*since--
			return nil
		},
		"torn": func(_ *wal.Excerpt, since *uint64) []byte {
			body, _ := shard.EncodeChain(*since, nil)
			return append(body, 1, 2, 3)
		},
	} {
		before, _ := f.rs.Mirror()
		f.publish(int(before.Gen))
		tamper.Store(edit)
		if err := f.rs.Sync(context.Background()); err == nil {
			t.Fatalf("%s: the mirror applied a hostile chain", name)
		}
		if got, _ := f.rs.Mirror(); got != before {
			t.Fatalf("%s: the mirror moved to generation %d", name, got.Gen)
		}
		tamper.Store(func(*wal.Excerpt, *uint64) []byte { return nil })
		f.sync()
	}
}

// TestReplicaReservesPrimaryChain: for the same ?since and head, the
// chain a replica re-serves out of the links its mirror folded is byte
// for byte the chain its primary serves — no per-process fact rides in
// a link — and names the same partition map.
func TestReplicaReservesPrimaryChain(t *testing.T) {
	f := newChainFixture(t, nil)
	since := f.w.Snapshot().Gen
	for i := 0; i < 3; i++ {
		f.publish(i)
	}
	f.sync() // one three-link chain: the replica holds all three links
	get := func(h http.Handler, since uint64) (http.Header, []byte) {
		req := httptest.NewRequest(http.MethodGet, PathSnapshot+"?since="+strconv.FormatUint(since, 10), nil)
		req.Header.Set("Accept", ContentTypeSnapshotChain)
		req.Header.Set(HeaderSnapshotInstance, f.ss.instance)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || ct != ContentTypeSnapshotChain {
			t.Fatalf("?since=%d: status %d, %s", since, rec.Code, ct)
		}
		return rec.Header(), rec.Body.Bytes()
	}
	for s := since; s < f.rs.Gen(); s++ {
		ph, primary := get(f.ss.Handler(), s)
		rh, replica := get(f.rs.Handler(), s)
		if !bytes.Equal(replica, primary) {
			t.Errorf("?since=%d: the replica's %d-byte chain differs from the primary's %d bytes", s, len(replica), len(primary))
		}
		if rh.Get(HeaderPartitionMap) != ph.Get(HeaderPartitionMap) {
			t.Errorf("?since=%d: the replica names map %q, the primary %q", s, rh.Get(HeaderPartitionMap), ph.Get(HeaderPartitionMap))
		}
	}
}
