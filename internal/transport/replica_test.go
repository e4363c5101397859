package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// startReplica boots an `ocad -follow` equivalent against a primary and
// serves it over httptest, wrapped in a slowable for stall injection.
func startReplica(t testing.TB, primary string) (*ReplicaServer, *httptest.Server, *slowable) {
	t.Helper()
	rs, err := NewReplica(context.Background(), primary, ReplicaConfig{
		Client:         testDialOptions().Client,
		ConnectTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewReplica(%s): %v", primary, err)
	}
	sl := &slowable{h: rs.Handler()}
	ts := httptest.NewServer(sl)
	t.Cleanup(func() {
		ts.Close()
		rs.Close()
	})
	return rs, ts, sl
}

// postForCode POSTs a JSON body and returns the status plus the typed
// error code of a non-2xx answer (postJSON only decodes success bodies).
func postForCode(t testing.TB, url string, in any) (int, string) {
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
	var er struct {
		Code string `json:"code"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&er)
	return resp.StatusCode, er.Code
}

func waitReplicaGen(t *testing.T, rs *ReplicaServer, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if rs.Gen() >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("replica stuck at generation %d, want >= %d", rs.Gen(), want)
}

// TestReplicaFollowsPrimary covers the follow protocol end to end on a
// single shard: the replica mirrors the primary's snapshot, advertises
// its role and upstream in health, answers lookups identically to the
// primary, refuses mutations with not_primary, re-serves `?since`
// resolution, and tracks the primary's generation as it advances.
func TestReplicaFollowsPrimary(t *testing.T) {
	g := twoCliques(t)
	cl, _ := startCluster(t, g, 1, 0, testOCA())
	rs, rts, _ := startReplica(t, cl.addrs[0])

	var h Health
	if code := getJSON(t, rts.URL+PathHealth, &h); code != http.StatusOK {
		t.Fatalf("replica health = %d", code)
	}
	if h.Role != RoleReplica || h.Primary != cl.addrs[0] {
		t.Errorf("replica health role=%q primary=%q, want %q/%q", h.Role, h.Primary, RoleReplica, cl.addrs[0])
	}
	if h.Shard != 0 || h.Shards != 1 || h.GlobalNodes != g.N() {
		t.Errorf("replica identity: %+v", h)
	}
	if h.Snapshot.Gen < 1 {
		t.Errorf("replica mirrored generation %d, want >= 1", h.Snapshot.Gen)
	}

	// Lookup answers must be byte-equivalent to the primary's at the
	// same generation.
	req := LookupRequest{Protocol: Version, IDs: []int32{0, 3, 7, 9}, Members: true}
	var fromPrimary, fromReplica LookupResponse
	if code := postJSON(t, cl.addrs[0]+PathLookup, req, &fromPrimary); code != http.StatusOK {
		t.Fatalf("primary lookup = %d", code)
	}
	if code := postJSON(t, rts.URL+PathLookup, req, &fromReplica); code != http.StatusOK {
		t.Fatalf("replica lookup = %d", code)
	}
	if !reflect.DeepEqual(fromPrimary, fromReplica) {
		t.Errorf("replica lookup diverges from primary:\n primary: %+v\n replica: %+v", fromPrimary, fromReplica)
	}

	// Mutations are refused with the typed not_primary code.
	if code, ec := postForCode(t, rts.URL+PathApply, map[string]any{"protocol": Version}); code != http.StatusServiceUnavailable || ec != CodeNotPrimary {
		t.Errorf("replica apply = %d code=%q, want 503 %q", code, ec, CodeNotPrimary)
	}
	if code, ec := postForCode(t, rts.URL+PathFlush, map[string]any{"protocol": Version}); code != http.StatusServiceUnavailable || ec != CodeNotPrimary {
		t.Errorf("replica flush = %d code=%q, want 503 %q", code, ec, CodeNotPrimary)
	}

	// `?since` on the replica resolves like on a primary: current
	// generation answers 304, stale asks get a full snapshot.
	if code := getJSON(t, fmt.Sprintf("%s%s?since=%d", rts.URL, PathSnapshot, rs.Gen()), nil); code != http.StatusNotModified {
		t.Errorf("replica snapshot?since=current = %d, want 304", code)
	}
	resp, err := http.Get(fmt.Sprintf("%s%s?since=0", rts.URL, PathSnapshot))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != ContentTypeSnapshot {
		t.Errorf("replica snapshot?since=0 = %d %q, want 200 %q",
			resp.StatusCode, resp.Header.Get("Content-Type"), ContentTypeSnapshot)
	}

	// Advance the primary: the replica's poller must catch the new
	// generation via `?since` incremental resolution.
	w := cl.workers[0]
	la, oka := w.Lookup(0)
	lb, okb := w.Lookup(7)
	if !oka || !okb {
		t.Fatal("globals 0/7 missing from the single shard's table")
	}
	if err := w.Apply(context.Background(), [][2]int32{{la, lb}}, nil); err != nil {
		t.Fatalf("primary apply: %v", err)
	}
	gen, err := w.Flush(context.Background())
	if err != nil {
		t.Fatalf("primary flush: %v", err)
	}
	waitReplicaGen(t, rs, gen)
	if code := getJSON(t, rts.URL+PathHealth, &h); code != http.StatusOK || h.Snapshot.Gen < gen {
		t.Errorf("replica health after primary advance: code=%d gen=%d, want 200 gen>=%d", code, h.Snapshot.Gen, gen)
	}
}

// TestReplicaRefusesChaining: a replica must not follow another replica.
func TestReplicaRefusesChaining(t *testing.T) {
	g := twoCliques(t)
	cl, _ := startCluster(t, g, 1, 0, testOCA())
	_, rts, _ := startReplica(t, cl.addrs[0])

	if _, err := NewReplica(context.Background(), rts.URL, ReplicaConfig{
		Client:         testDialOptions().Client,
		ConnectTimeout: 2 * time.Second,
	}); err == nil || !strings.Contains(err.Error(), "chained replication") {
		t.Fatalf("NewReplica(replica) err = %v, want chained-replication refusal", err)
	}
}

// TestDialReplicaValidation: Dial must refuse a replica listed as a
// primary and a primary listed as a replica (a second writer).
func TestDialReplicaValidation(t *testing.T) {
	g := twoCliques(t)
	cl, _ := startCluster(t, g, 1, 0, testOCA())
	_, rts, _ := startReplica(t, cl.addrs[0])

	opt := testDialOptions()
	opt.ConnectTimeout = 2 * time.Second
	if _, err := Dial(context.Background(), []string{rts.URL}, opt); err == nil || !strings.Contains(err.Error(), "read-only replica") {
		t.Errorf("Dial(replica as primary) err = %v, want refusal", err)
	}
	opt.Replicas = [][]string{{cl.addrs[0]}}
	if _, err := Dial(context.Background(), cl.addrs, opt); err == nil || !strings.Contains(err.Error(), "not a replica") {
		t.Errorf("Dial(primary as replica) err = %v, want refusal", err)
	}
	opt.Replicas = [][]string{}
	if _, err := Dial(context.Background(), cl.addrs, opt); err == nil || !strings.Contains(err.Error(), "replica lists") {
		t.Errorf("Dial(short replica lists) err = %v, want refusal", err)
	}
}

// TestReplicatedClusterEndToEnd is the replicated deployment's
// acceptance test over the public API: healthz surfaces per-replica
// freshness, read-your-writes holds through the replica set's floor,
// /debug/metrics exports replica gauges, and — the availability
// contract — killing a primary keeps reads flowing from its replica
// with zero 5xx while writes degrade to an explicit 503.
func TestReplicatedClusterEndToEnd(t *testing.T) {
	g := twoCliques(t)
	cl, _ := startCluster(t, g, 2, 64, testOCA())
	repl0, r0, _ := startReplica(t, cl.addrs[0])
	_, r1, _ := startReplica(t, cl.addrs[1])

	opt := testDialOptions()
	opt.Replicas = [][]string{{r0.URL}, {r1.URL}}
	rt, err := Dial(context.Background(), cl.addrs, opt)
	if err != nil {
		t.Fatalf("Dial replicated: %v", err)
	}
	srv, err := server.NewWithProvider(rt, server.Config{})
	if err != nil {
		t.Fatalf("NewWithProvider: %v", err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// healthz lists each shard's members with role and freshness.
	var hr struct {
		Status string `json:"status"`
		Shards []struct {
			Shard    int `json:"shard"`
			Replicas []struct {
				Role    string `json:"role"`
				Lag     uint64 `json:"lag_generations"`
				Healthy bool   `json:"healthy"`
			} `json:"replicas"`
		} `json:"shards"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &hr); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", code, hr.Status)
	}
	for _, sh := range hr.Shards {
		if len(sh.Replicas) != 2 {
			t.Fatalf("shard %d healthz lists %d members, want primary+replica", sh.Shard, len(sh.Replicas))
		}
		if sh.Replicas[0].Role != "primary" || sh.Replicas[1].Role != "replica" {
			t.Errorf("shard %d member roles: %+v", sh.Shard, sh.Replicas)
		}
		for _, m := range sh.Replicas {
			if !m.Healthy {
				t.Errorf("shard %d member unhealthy at boot: %+v", sh.Shard, m)
			}
		}
	}

	// Read-your-writes through the set: a flushed write is immediately
	// visible — the floor forbids routing the follow-up read to a
	// replica still mirroring the pre-write generation.
	for i := 0; i < 3; i++ {
		var er struct {
			Generation uint64 `json:"generation"`
		}
		u, v := int32(i), int32(9-i)
		if code := postJSON(t, ts.URL+"/v1/edges", map[string]any{"add": [][2]int32{{u, v}}, "wait": true}, &er); code != http.StatusOK {
			t.Fatalf("edges wait=true = %d", code)
		}
		if code := getJSON(t, fmt.Sprintf("%s/v1/node/%d/communities", ts.URL, u), nil); code != http.StatusOK {
			t.Fatalf("read-your-writes lookup after gen %d = %d", er.Generation, code)
		}
	}

	// Replica metrics are exported in both JSON and Prometheus form.
	var mr struct {
		Replicas []struct {
			Shard   int `json:"shard"`
			Members []struct {
				Role string `json:"role"`
			} `json:"members"`
		} `json:"replicas"`
	}
	if code := getJSON(t, ts.URL+"/debug/metrics", &mr); code != http.StatusOK || len(mr.Replicas) != 2 {
		t.Fatalf("/debug/metrics replicas: code=%d %+v", code, mr.Replicas)
	}
	resp, err := http.Get(ts.URL + "/debug/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	promBody := make([]byte, 1<<20)
	n, _ := resp.Body.Read(promBody)
	resp.Body.Close()
	prom := string(promBody[:n])
	if !strings.Contains(prom, "ocad_replica_lag_generations") {
		t.Error("prometheus export missing ocad_replica_lag_generations")
	}

	// Kill shard 0's primary. Let the replica finish mirroring the last
	// flushed generation first so the floor stays satisfiable.
	vec, err := rt.Flush(context.Background(), []int{0})
	if err != nil {
		t.Fatalf("Flush before kill: %v", err)
	}
	var target uint64
	for _, e := range vec {
		if e.Shard == 0 {
			target = e.Gen
		}
	}
	waitReplicaGen(t, repl0, target)
	// ... and the router's own mirror of that replica, which catches up
	// on its separate poll cadence: the floor is the flushed generation,
	// so the replica is only a read candidate once the router sees it
	// there.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		stats := rt.ReplicaStats()
		if len(stats) == 2 && stats[0] != nil && stats[0].Members[1].Generation >= target {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router mirror of shard 0's replica never reached gen %d: %+v", target, stats[0])
		}
	}
	cl.servers[0].Close()

	// Writes degrade to an explicit 503 once the poller notices.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code := postJSON(t, ts.URL+"/v1/edges", map[string]any{"add": [][2]int32{{0, 2}}}, nil)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writes to the dead primary's shard still answer %d, want 503", code)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Reads on the dead primary's shard keep flowing from its replica:
	// zero 5xx across a barrage, and healthz stays ok (views are served).
	for i := 0; i < 50; i++ {
		id := i % g.N()
		if code := getJSON(t, fmt.Sprintf("%s/v1/node/%d/communities", ts.URL, id), nil); code != http.StatusOK {
			t.Fatalf("lookup id %d with dead primary = %d, want 200 (read %d/50)", id, code, i)
		}
	}
	// The poller marks the dead primary unhealthy on its own cadence —
	// the write 503 above can come straight from a refused connection
	// before the next health tick, so give the poller a beat.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if code := getJSON(t, ts.URL+"/healthz", &hr); code != http.StatusOK || hr.Status != "ok" {
			t.Fatalf("healthz with dead primary = %d %q, want 200 ok (reads are served)", code, hr.Status)
		}
		settled := true
		for _, sh := range hr.Shards {
			if sh.Shard != 0 {
				continue
			}
			if sh.Replicas[0].Healthy {
				settled = false
			}
			if !sh.Replicas[1].Healthy {
				t.Error("serving replica reported unhealthy")
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead primary still reported healthy")
		}
	}
}

// TestReplicaRejoin: a replica that dies and restarts on its old
// address is picked back up by the router's poller and catches up to
// the primary's advanced generation via `?since` resolution.
func TestReplicaRejoin(t *testing.T) {
	g := twoCliques(t)
	cl, _ := startCluster(t, g, 1, 64, testOCA())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	raddr := ln.Addr().String()
	rsA, err := NewReplica(context.Background(), cl.addrs[0], ReplicaConfig{
		Client: testDialOptions().Client, ConnectTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewUnstartedServer(rsA.Handler())
	tsA.Listener.Close()
	tsA.Listener = ln
	tsA.Start()

	opt := testDialOptions()
	opt.Replicas = [][]string{{"http://" + raddr}}
	rt, err := Dial(context.Background(), cl.addrs, opt)
	if err != nil {
		t.Fatalf("Dial replicated: %v", err)
	}
	t.Cleanup(rt.Close)

	memberGen := func(idx int) (uint64, bool) {
		stats := rt.ReplicaStats()
		if len(stats) != 1 || stats[0] == nil || len(stats[0].Members) != 2 {
			t.Fatalf("replica stats: %+v", stats)
		}
		m := stats[0].Members[idx]
		return m.Generation, m.Healthy
	}

	// Kill the replica, then advance the primary past its last mirror.
	tsA.Close()
	rsA.Close()
	if _, _, _, err := rt.Enqueue(context.Background(), [][2]int32{{0, 8}}, nil); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	vec, err := rt.Flush(context.Background(), nil)
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	target := vec[0].Gen

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, healthy := memberGen(1); !healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router never noticed the replica dying")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Restart on the same address: the router's existing client must
	// reconnect and `?since` catch up to the advanced generation.
	var ln2 net.Listener
	for deadline = time.Now().Add(5 * time.Second); ; time.Sleep(25 * time.Millisecond) {
		if ln2, err = net.Listen("tcp", raddr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", raddr, err)
		}
	}
	rsB, err := NewReplica(context.Background(), cl.addrs[0], ReplicaConfig{
		Client: testDialOptions().Client, ConnectTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewUnstartedServer(rsB.Handler())
	tsB.Listener.Close()
	tsB.Listener = ln2
	tsB.Start()
	t.Cleanup(func() {
		tsB.Close()
		rsB.Close()
	})

	for deadline = time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		gen, healthy := memberGen(1)
		if healthy && gen >= target {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoined replica stuck at gen %d healthy=%v, want gen >= %d", gen, healthy, target)
		}
	}
}
