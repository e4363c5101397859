package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/refresh"
)

func openTestStore(t *testing.T, dir string) *persist.Store {
	t.Helper()
	st, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	return st
}

// openSingle boots the single-graph role's data directory the way a
// fresh process does (persist.OpenSingle): scan it, replay the WAL
// tail, and hand back the pre-shutdown snapshot — or, on a cold start,
// the two-clique input graph.
func openSingle(t *testing.T, dir string, oca core.Options) *persist.Single {
	t.Helper()
	ds, err := persist.OpenSingle(persist.Options{Dir: dir}, refresh.Config{OCA: oca}, func(seg *persist.Segment) (*graph.Graph, int, int, error) {
		if seg != nil {
			return nil, seg.GlobalNodes, seg.MaxNodes, nil
		}
		g := twoCliqueGraph(t)
		return g, g.N(), 0, nil
	})
	if err != nil {
		t.Fatalf("OpenSingle: %v", err)
	}
	return ds
}

// TestServerPersistRestartRoundTrip drives the durability cycle through
// the HTTP layer: a server logging to a store, a mutation, a clean
// shutdown (final seal), a restart serving the recovered snapshot at
// the exact pre-shutdown generation, then a simulated crash whose WAL
// tail replays on the next recovery.
func TestServerPersistRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	oca := core.Options{Seed: 1, C: 0.5}

	ds := openSingle(t, dir, oca)
	if ds.Recovered != nil || ds.Graph == nil {
		t.Fatalf("cold start returned snapshot %+v, input graph %v", ds.Recovered, ds.Graph)
	}
	store := ds.Store
	s, err := New(ds.Graph, Config{OCA: oca, Persist: store})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())

	var er EdgesResponse
	if code := postJSON(t, ts.URL+"/v1/edges", EdgesRequest{Add: [][2]int32{{0, 9}}, Wait: true}, &er); code != http.StatusOK {
		t.Fatalf("edges status = %d", code)
	}
	if !er.Applied || er.Generation != 2 {
		t.Fatalf("edges response = %+v, want applied at generation 2", er)
	}
	var h healthzResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Persistence == nil || h.Persistence.LoggedBatches != 1 {
		t.Fatalf("healthz persistence = %+v, want 1 logged batch", h.Persistence)
	}
	if h.Persistence.Recovered.Source != "cold" {
		t.Errorf("recovery source = %q, want cold", h.Persistence.Recovered.Source)
	}
	cv, err := s.Cover()
	if err != nil {
		t.Fatalf("Cover: %v", err)
	}
	preCover := append([]int32(nil), cv.Communities[0]...)
	ts.Close()
	s.Close() // clean shutdown: seals the final segment
	store.Close()

	// Restart: recovery is a pure segment load (no WAL tail after a
	// clean shutdown) and the served generation does not regress.
	ds2 := openSingle(t, dir, oca)
	store2, snap := ds2.Store, ds2.Recovered
	if snap == nil || snap.Gen != 2 {
		t.Fatalf("recovered snapshot = %+v, want generation 2", snap)
	}
	s2, err := NewWithSnapshot(snap, Config{Persist: store2})
	if err != nil {
		t.Fatalf("NewWithSnapshot: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	if got := s2.Generation(); got != 2 {
		t.Fatalf("restarted generation = %d, want 2", got)
	}
	if !snap.Graph.HasEdge(0, 9) {
		t.Error("recovered graph lost the mutation")
	}
	if got := []int32(snap.Cover.Communities[0]); !reflect.DeepEqual(got, preCover) {
		t.Errorf("recovered cover community 0 = %v, want %v", got, preCover)
	}
	getJSON(t, ts2.URL+"/healthz", &h)
	if h.Persistence == nil || h.Persistence.Recovered.Source != "segment" {
		t.Fatalf("restart healthz persistence = %+v, want source segment", h.Persistence)
	}

	// A mutation accepted after restart, then a crash (no seal): the
	// next recovery replays it from the WAL tail.
	if code := postJSON(t, ts2.URL+"/v1/edges", EdgesRequest{Add: [][2]int32{{1, 8}}, Wait: true}, &er); code != http.StatusOK {
		t.Fatalf("post-restart edges status = %d", code)
	}
	store2.Close() // kill: the server never seals

	ds3 := openSingle(t, dir, oca)
	store3, snap3 := ds3.Store, ds3.Recovered
	defer store3.Close()
	if snap3 == nil || snap3.Gen != 3 {
		t.Fatalf("post-crash snapshot = %+v, want generation 3", snap3)
	}
	if !snap3.Graph.HasEdge(1, 8) || !snap3.Graph.HasEdge(0, 9) {
		t.Error("post-crash recovery lost a mutation")
	}
	if st := store3.Stats(); st.Recovered.Source != "segment+wal" || st.Recovered.ReplayedBatches != 1 {
		t.Errorf("post-crash recovery stats = %+v, want segment+wal with 1 batch", st.Recovered)
	}
}

// TestExportGenerationParam exercises the point-in-time export: retained
// generations stream from segments, the live one from the snapshot, and
// the error paths are explicit.
func TestExportGenerationParam(t *testing.T) {
	dir := t.TempDir()
	oca := core.Options{Seed: 1, C: 0.5}
	store := openTestStore(t, dir)
	defer store.Close()
	s, err := New(twoCliqueGraph(t), Config{OCA: oca, Persist: store})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var er EdgesResponse
	if code := postJSON(t, ts.URL+"/v1/edges", EdgesRequest{Add: [][2]int32{{0, 9}}, Wait: true}, &er); code != http.StatusOK {
		t.Fatalf("edges status = %d", code)
	}

	// Generation 1 was sealed at startup; generation 2 is live and
	// unsealed. Both must export, with matching meta lines.
	for gen, wantEdges := range map[uint64]int64{1: 29, 2: 30} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/cover/export?generation=%d", ts.URL, gen))
		if err != nil {
			t.Fatal(err)
		}
		var meta exportMeta
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&meta) != nil {
			t.Fatalf("export generation %d: status %d", gen, resp.StatusCode)
		}
		resp.Body.Close()
		if meta.Generation != gen || meta.Edges != wantEdges {
			t.Errorf("export generation %d meta = %+v, want edges %d", gen, meta, wantEdges)
		}
	}

	if code := getJSON(t, ts.URL+"/v1/cover/export?generation=99", nil); code != http.StatusNotFound {
		t.Errorf("unknown generation status = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/cover/export?generation=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("bad generation status = %d, want 400", code)
	}

	// Without a data directory the parameter is an explicit error, not
	// silently ignored.
	bare, bts := newTestServer(t, Config{})
	_ = bare
	if code := getJSON(t, bts.URL+"/v1/cover/export?generation=1", nil); code != http.StatusBadRequest {
		t.Errorf("no-store generation status = %d, want 400", code)
	}
}

// TestPersistUnsupportedTopologies pins the roles that must refuse a
// store: in-process sharding and the provider-backed router.
func TestPersistUnsupportedTopologies(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	defer store.Close()
	if _, err := New(twoCliqueGraph(t), Config{Shards: 2, OCA: core.Options{Seed: 1, C: 0.5}, Persist: store}); err == nil {
		t.Error("in-process sharded server accepted a store")
	}
	if _, err := NewWithSnapshot(refresh.NewSnapshot(twoCliqueGraph(t), fixedCover(), nil, 0.5, 0), Config{Shards: 2}); err == nil {
		t.Error("sharded NewWithSnapshot accepted")
	}
}
