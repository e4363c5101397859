package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/shard"
)

// twoCliques builds two K5 cliques (0–4, 5–9) joined by one bridge
// edge — small enough for fast OCA, structured enough that every shard
// serves real communities.
func twoCliques(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(10)
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(i, j)
			b.AddEdge(5+i, 5+j)
		}
	}
	b.AddEdge(4, 5)
	return b.Build()
}

func testOCA() core.Options { return core.Options{Seed: 1, C: 0.5} }

// cluster is an in-process multi-"process" deployment: K shard workers
// behind real HTTP shard servers (httptest), for provider-level tests.
type cluster struct {
	workers []*shard.Worker
	servers []*httptest.Server
	shards  []*ShardServer
	addrs   []string
}

// slowable wraps a handler with a switchable delay, to simulate a slow
// shard process.
type slowable struct {
	h     http.Handler
	delay atomic.Int64 // nanoseconds
}

func (s *slowable) setDelay(d time.Duration) { s.delay.Store(int64(d)) }

func (s *slowable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d := time.Duration(s.delay.Load()); d > 0 {
		time.Sleep(d)
	}
	s.h.ServeHTTP(w, r)
}

func startCluster(t testing.TB, g *graph.Graph, k, maxNodes int, opt core.Options) (*cluster, []*slowable) {
	t.Helper()
	pieces, err := shard.Split(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if maxNodes < g.N() {
		maxNodes = g.N()
	}
	cl := &cluster{}
	var slows []*slowable
	for s := 0; s < k; s++ {
		w, err := shard.NewWorker(pieces[s], k, shard.Config{
			OCA:                  opt,
			Debounce:             time.Millisecond,
			IncrementalThreshold: 0.5,
		}, maxNodes)
		if err != nil {
			t.Fatalf("shard %d worker: %v", s, err)
		}
		ss := NewShardServer(w, ServerConfig{GlobalNodes: g.N(), MaxNodes: maxNodes})
		sl := &slowable{h: ss.Handler()}
		ts := httptest.NewServer(sl)
		cl.workers = append(cl.workers, w)
		cl.shards = append(cl.shards, ss)
		cl.servers = append(cl.servers, ts)
		cl.addrs = append(cl.addrs, ts.URL)
		slows = append(slows, sl)
	}
	t.Cleanup(func() {
		for _, ts := range cl.servers {
			ts.Close()
		}
		for _, w := range cl.workers {
			w.Close()
		}
	})
	return cl, slows
}

func testDialOptions() Options {
	return Options{
		Client: ClientConfig{
			RequestTimeout:  500 * time.Millisecond,
			SnapshotTimeout: 2 * time.Second,
			PollInterval:    10 * time.Millisecond,
		},
		ConnectTimeout: 10 * time.Second,
	}
}

func dialCluster(t testing.TB, cl *cluster) *shard.Router {
	t.Helper()
	rt, err := Dial(context.Background(), cl.addrs, testDialOptions())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	return rt
}

func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t testing.TB, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode
}

// TestSnapshotRoundTrip: a shard's published generation survives the
// wire encoding byte-for-byte in everything a reader consumes — graph
// dimensions and edges, cover, rebuilt index/stats, ownership metadata,
// and the scalar snapshot facts.
func TestSnapshotRoundTrip(t *testing.T) {
	g := twoCliques(t)
	cl, _ := startCluster(t, g, 2, 0, testOCA())
	w := cl.workers[0]
	snap := w.Snapshot()

	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, w.Shard(), w.K(), snap, w.Table()); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, table, err := decodeSnapshot(&buf, w.Shard(), w.K())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Gen != snap.Gen || got.C != snap.C || got.RebuildMode != snap.RebuildMode {
		t.Errorf("scalars: got gen=%d c=%g mode=%q, want gen=%d c=%g mode=%q",
			got.Gen, got.C, got.RebuildMode, snap.Gen, snap.C, snap.RebuildMode)
	}
	if got.Graph.N() != snap.Graph.N() || got.Graph.M() != snap.Graph.M() {
		t.Errorf("graph dims: got (%d, %d), want (%d, %d)", got.Graph.N(), got.Graph.M(), snap.Graph.N(), snap.Graph.M())
	}
	for v := int32(0); int(v) < snap.Graph.N(); v++ {
		gn, wn := got.Graph.Neighbors(v), snap.Graph.Neighbors(v)
		if len(gn) != len(wn) {
			t.Fatalf("node %d degree %d, want %d", v, len(gn), len(wn))
		}
		for i := range gn {
			if gn[i] != wn[i] {
				t.Fatalf("node %d adjacency differs", v)
			}
		}
	}
	if got.Cover.Len() != snap.Cover.Len() {
		t.Fatalf("cover: %d communities, want %d", got.Cover.Len(), snap.Cover.Len())
	}
	for i, c := range snap.Cover.Communities {
		if !got.Cover.Communities[i].Equal(c) {
			t.Fatalf("community %d differs", i)
		}
	}
	if got.Stats != snap.Stats {
		t.Errorf("stats: %+v, want %+v", got.Stats, snap.Stats)
	}
	gm, wm := got.Aux.(*shard.Meta), snap.Aux.(*shard.Meta)
	if gm.OwnedNodes != wm.OwnedNodes || gm.OwnedEdges != wm.OwnedEdges ||
		gm.CoveredOwned != wm.CoveredOwned || gm.OverlapOwned != wm.OverlapOwned ||
		gm.OwnedMemberships != wm.OwnedMemberships || gm.MaxMembershipOwned != wm.MaxMembershipOwned {
		t.Errorf("meta: %+v, want %+v", *gm, *wm)
	}
	if len(table) < got.Graph.N() || len(gm.Locals) != got.Graph.N() {
		t.Errorf("table/locals lengths: %d/%d for %d nodes", len(table), len(gm.Locals), got.Graph.N())
	}
}

// TestRemoteMatchesInProcess: the same graph served through the remote
// transport and through the in-process sharded router answers node
// lookups identically (same per-shard covers: identical seeds and
// pinned c make per-shard OCA deterministic).
func TestRemoteMatchesInProcess(t *testing.T) {
	g := twoCliques(t)
	const k = 2
	cl, _ := startCluster(t, g, k, 0, testOCA())
	rt := dialCluster(t, cl)

	remote, err := server.NewWithProvider(rt, server.Config{})
	if err != nil {
		t.Fatalf("NewWithProvider: %v", err)
	}
	t.Cleanup(remote.Close)
	remoteTS := httptest.NewServer(remote.Handler())
	t.Cleanup(remoteTS.Close)

	local, err := server.New(twoCliques(t), server.Config{OCA: testOCA(), Shards: k})
	if err != nil {
		t.Fatalf("New local: %v", err)
	}
	t.Cleanup(local.Close)
	localTS := httptest.NewServer(local.Handler())
	t.Cleanup(localTS.Close)

	type nodeResp struct {
		Node        int32  `json:"node"`
		Count       int    `json:"count"`
		Communities []any  `json:"communities"`
		Shards      []any  `json:"shards"`
		Generation  uint64 `json:"generation"`
	}
	for v := 0; v < g.N(); v++ {
		var rr, lr nodeResp
		rc := getJSON(t, fmt.Sprintf("%s/v1/node/%d/communities?members=1", remoteTS.URL, v), &rr)
		lc := getJSON(t, fmt.Sprintf("%s/v1/node/%d/communities?members=1", localTS.URL, v), &lr)
		if rc != http.StatusOK || lc != http.StatusOK {
			t.Fatalf("node %d: remote %d, local %d", v, rc, lc)
		}
		if rr.Count != lr.Count {
			t.Errorf("node %d: remote count %d, local %d", v, rr.Count, lr.Count)
		}
	}

	// Aggregate shapes agree too: same owned dims, both generation 1.
	var rh, lh struct {
		Status string `json:"status"`
		Nodes  int    `json:"nodes"`
		Edges  int64  `json:"edges"`
	}
	getJSON(t, remoteTS.URL+"/healthz", &rh)
	getJSON(t, localTS.URL+"/healthz", &lh)
	if rh != lh {
		t.Errorf("healthz: remote %+v, local %+v", rh, lh)
	}
	if rh.Status != "ok" {
		t.Errorf("remote healthz status = %q", rh.Status)
	}
}

// TestRemoteMutationFlow: mutations posted through the remote-backed
// server fan out over the wire, wait=true flushes only the touched
// shards, and — the read-your-writes contract — an immediately
// following lookup observes the flushed generation. Growth materializes
// new nodes across processes.
func TestRemoteMutationFlow(t *testing.T) {
	g := twoCliques(t)
	const k = 2
	cl, _ := startCluster(t, g, k, 64, testOCA())
	rt := dialCluster(t, cl)
	remote, err := server.NewWithProvider(rt, server.Config{})
	if err != nil {
		t.Fatalf("NewWithProvider: %v", err)
	}
	t.Cleanup(remote.Close)
	ts := httptest.NewServer(remote.Handler())
	t.Cleanup(ts.Close)

	var er struct {
		Queued     int             `json:"queued"`
		Generation uint64          `json:"generation"`
		Applied    bool            `json:"applied"`
		Shards     shard.GenVector `json:"shards"`
	}
	code := postJSON(t, ts.URL+"/v1/edges", map[string]any{
		"add":  [][2]int32{{0, 7}, {10, 11}},
		"wait": true,
	}, &er)
	if code != http.StatusOK {
		t.Fatalf("edges wait=true status = %d", code)
	}
	if !er.Applied || er.Queued != 2 {
		t.Fatalf("edges response: %+v", er)
	}
	if er.Generation < 2 {
		t.Fatalf("generation after flush = %d, want >= 2", er.Generation)
	}
	if len(er.Shards) != k {
		t.Fatalf("shard vector has %d entries, want %d", len(er.Shards), k)
	}
	for _, e := range er.Shards {
		if e.Err != "" {
			t.Fatalf("shard %d degraded: %s", e.Shard, e.Err)
		}
	}

	// Read-your-writes: the grown node answers immediately (200, not
	// 404) and the response quotes a generation at or past the flush.
	var nr struct {
		Generation uint64 `json:"generation"`
	}
	if code := getJSON(t, ts.URL+"/v1/node/10/communities", &nr); code != http.StatusOK {
		t.Fatalf("lookup of grown node 10 = %d, want 200", code)
	}
	// The added cross-clique edge is in both owning shards' graphs.
	for _, w := range cl.workers {
		view := w.View()
		lu, ok1 := view.Local(0)
		lv, ok2 := view.Local(7)
		if ok1 && ok2 && !view.Snap.Graph.HasEdge(lu, lv) {
			t.Errorf("shard %d: edge (0,7) missing after flush", w.Shard())
		}
	}
}

// TestApplyBatchReconciliation: re-shipped table entries are verified
// and skipped (retry safety), gaps and contradictions are conflicts.
func TestApplyBatchReconciliation(t *testing.T) {
	g := twoCliques(t)
	cl, _ := startCluster(t, g, 2, 64, testOCA())
	w := cl.workers[0]
	base := len(w.Table())

	// New ghost entries 20, 22 (globals of shard 0) appended at base.
	if _, _, err := w.ApplyBatch(shard.Batch{Base: base, NewLocals: []int32{20, 22}}); err != nil {
		t.Fatalf("first apply: %v", err)
	}
	// Identical re-ship: idempotent.
	if _, _, err := w.ApplyBatch(shard.Batch{Base: base, NewLocals: []int32{20, 22}}); err != nil {
		t.Fatalf("re-ship: %v", err)
	}
	// Overlapping re-ship plus one new entry.
	if _, _, err := w.ApplyBatch(shard.Batch{Base: base, NewLocals: []int32{20, 22, 24}}); err != nil {
		t.Fatalf("overlap ship: %v", err)
	}
	if got := len(w.Table()); got != base+3 {
		t.Fatalf("table length %d, want %d", got, base+3)
	}
	// Contradicting re-ship: conflict.
	if _, _, err := w.ApplyBatch(shard.Batch{Base: base, NewLocals: []int32{26}}); err == nil {
		t.Fatal("contradicting re-ship accepted, want conflict")
	}
	// Gap beyond the table: conflict.
	if _, _, err := w.ApplyBatch(shard.Batch{Base: base + 10, NewLocals: []int32{28}}); err == nil {
		t.Fatal("gapped base accepted, want conflict")
	}
	// Duplicate global at a new local: conflict.
	if _, _, err := w.ApplyBatch(shard.Batch{Base: base + 3, NewLocals: []int32{20}}); err == nil {
		t.Fatal("duplicate global accepted, want conflict")
	}
}

// TestProtocolVersionGate: a request carrying a foreign protocol
// version is refused with the protocol_mismatch code.
func TestProtocolVersionGate(t *testing.T) {
	g := twoCliques(t)
	cl, _ := startCluster(t, g, 2, 0, testOCA())

	req, _ := http.NewRequest(http.MethodGet, cl.addrs[0]+PathHealth, nil)
	req.Header.Set(HeaderProtocol, "999")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Code != CodeProtocolMismatch {
		t.Fatalf("code = %q, want %q", er.Code, CodeProtocolMismatch)
	}
	if got := resp.Header.Get(HeaderProtocol); got != "1" {
		t.Fatalf("response protocol header = %q, want 1", got)
	}
}

// TestDialValidation: a shard hosted at the wrong position, or an
// inconsistent deployment, fails the handshake.
func TestDialValidation(t *testing.T) {
	g := twoCliques(t)
	cl, _ := startCluster(t, g, 2, 0, testOCA())

	// The default ConnectTimeout (60 s): a server that answers as
	// another shard must fail the dial at once, not after retrying.
	opt := testDialOptions()
	opt.ConnectTimeout = 0
	for _, tc := range []struct {
		name  string
		addrs []string
		want  string
	}{
		// Swapped addresses: addr 0 hosts shard 1.
		{"swapped", []string{cl.addrs[1], cl.addrs[0]}, fmt.Sprintf("transport: %s hosts shard 1 of 2, want shard 0 of 2", cl.addrs[1])},
		// Two copies of shard 0's address: addr 1 hosts shard 0.
		{"duplicated", []string{cl.addrs[0], cl.addrs[0]}, fmt.Sprintf("transport: %s hosts shard 0 of 2, want shard 1 of 2", cl.addrs[0])},
	} {
		start := time.Now()
		_, err := Dial(context.Background(), tc.addrs, opt)
		if err == nil {
			t.Fatalf("%s: Dial accepted misaddressed shards", tc.name)
		}
		if err.Error() != tc.want {
			t.Fatalf("%s: Dial error %q, want %q", tc.name, err, tc.want)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%s: Dial took %v to refuse misaddressed shards, want < 1s", tc.name, d)
		}
	}
}
