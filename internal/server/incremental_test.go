package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/refresh"
)

// TestStatsSurfacesRebuildMode: /v1/cover/stats must quote the served
// generation's rebuild mode, including the fastpath after a batch that
// touches no community.
func TestStatsSurfacesRebuildMode(t *testing.T) {
	// Graph: the two overlapping cliques plus an uncovered pendant pair
	// 10–11 (MaxNodes lets the batch name them).
	s, ts := newTestServer(t, Config{
		OCA:                  coreOptionsForTest(),
		RefreshDebounce:      time.Millisecond,
		IncrementalThreshold: 0.6,
		MaxNodes:             16,
	})
	defer s.Close()

	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/cover/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.RebuildMode != refresh.ModeFull {
		t.Fatalf("initial rebuild_mode = %q, want %q", st.RebuildMode, refresh.ModeFull)
	}

	// The server was built from a preloaded cover, which never went
	// through the merge step — the first rebuild must therefore take the
	// full path (restoring the Merge-fixpoint invariant) no matter how
	// small the batch.
	var er EdgesResponse
	if code := postJSON(t, ts.URL+"/v1/edges", EdgesRequest{Add: [][2]int32{{10, 11}}, Wait: true}, &er); code != http.StatusOK {
		t.Fatalf("edges add status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/cover/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.RebuildMode != refresh.ModeFull {
		t.Fatalf("first rebuild over a preloaded cover: rebuild_mode = %q, want %q", st.RebuildMode, refresh.ModeFull)
	}

	// From the second rebuild on the engine is live: an addition between
	// uncovered nodes takes the scoped incremental path, and a removal
	// touching no community is the fastpath.
	if code := postJSON(t, ts.URL+"/v1/edges", EdgesRequest{Add: [][2]int32{{12, 13}}, Wait: true}, &er); code != http.StatusOK {
		t.Fatalf("edges add status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/cover/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.RebuildMode != refresh.ModeIncremental || st.DirtyNodes == 0 {
		t.Fatalf("after uncovered addition: rebuild_mode = %q dirty_nodes = %d, want incremental with a dirty region", st.RebuildMode, st.DirtyNodes)
	}

	prevComms := st.Communities
	if code := postJSON(t, ts.URL+"/v1/edges", EdgesRequest{Remove: [][2]int32{{12, 13}}, Wait: true}, &er); code != http.StatusOK {
		t.Fatalf("edges remove status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/cover/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.RebuildMode != refresh.ModeFastpath {
		t.Fatalf("after uncovered removal: rebuild_mode = %q, want %q", st.RebuildMode, refresh.ModeFastpath)
	}
	if st.Communities != prevComms {
		t.Fatalf("fastpath changed the community count: %d -> %d", prevComms, st.Communities)
	}
}

// TestDebugMetricsRefreshSection: the JSON body carries the per-shard
// refresh gauges once a cover exists.
func TestDebugMetricsRefreshSection(t *testing.T) {
	_, ts := newTestServer(t, Config{OCA: coreOptionsForTest(), RefreshDebounce: time.Millisecond})
	var m metricsResponse
	if code := getJSON(t, ts.URL+"/debug/metrics", &m); code != http.StatusOK {
		t.Fatalf("debug/metrics status = %d", code)
	}
	if len(m.Refresh) != 1 {
		t.Fatalf("refresh section has %d entries, want 1", len(m.Refresh))
	}
	e := m.Refresh[0]
	if e.Shard != 0 || e.Generation == 0 {
		t.Fatalf("refresh entry = %+v, want shard 0 with a generation", e)
	}
	if e.QueueDepth != 0 || e.OldestPendingAgeSeconds != 0 {
		t.Fatalf("idle server reports queue depth %d age %g", e.QueueDepth, e.OldestPendingAgeSeconds)
	}
}

// TestDebugMetricsPrometheusFormat: ?format=prometheus serves the text
// exposition format with the queue-depth and oldest-pending-age gauges.
func TestDebugMetricsPrometheusFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{OCA: coreOptionsForTest(), RefreshDebounce: time.Millisecond})
	// Generate one request's worth of route counters first.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	resp, err := http.Get(ts.URL + "/debug/metrics?format=prometheus")
	if err != nil {
		t.Fatalf("GET prometheus metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q, want text/plain exposition", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE ocad_shard_queue_depth gauge",
		`ocad_shard_queue_depth{shard="0"} 0`,
		"# TYPE ocad_shard_oldest_pending_age_seconds gauge",
		`ocad_shard_oldest_pending_age_seconds{shard="0"} 0`,
		`ocad_shard_generation{shard="0"} 1`,
		`ocad_http_requests_total{route="GET /healthz"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus body missing %q\n%s", want, text)
		}
	}
}

// coreOptionsForTest pins c so tests never pay for deriving it.
func coreOptionsForTest() core.Options {
	return core.Options{C: 0.5, Seed: 2}
}
