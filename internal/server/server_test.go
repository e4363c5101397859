package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
)

// twoCliqueGraph builds the quickstart graph: two 6-cliques sharing two
// nodes (4 and 5) — the textbook overlapping-community picture.
func twoCliqueGraph(t testing.TB) *graph.Graph {
	t.Helper()
	const groupSize, shared = 6, 2
	n := 2*groupSize - shared
	b := graph.NewBuilder(n)
	for i := int32(0); i < groupSize; i++ {
		for j := i + 1; j < groupSize; j++ {
			b.AddEdge(i, j)
		}
	}
	for i := int32(groupSize - shared); i < int32(n); i++ {
		for j := i + 1; j < int32(n); j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

// fixedCover is the ground-truth cover of twoCliqueGraph.
func fixedCover() *cover.Cover {
	return cover.NewCover([]cover.Community{
		{0, 1, 2, 3, 4, 5},
		{4, 5, 6, 7, 8, 9},
	})
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewWithCover(twoCliqueGraph(t), fixedCover(), cfg)
	if err != nil {
		t.Fatalf("NewWithCover: %v", err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
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
	payload, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var h healthzResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if h.Status != "ok" || h.Nodes != 10 || h.Edges != 29 || !h.CoverReady {
		t.Errorf("healthz = %+v", h)
	}
}

func TestNodeCommunities(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tests := []struct {
		node      string
		wantCode  int
		wantComms []int32
	}{
		{"0", http.StatusOK, []int32{0}},
		{"4", http.StatusOK, []int32{0, 1}}, // overlap node
		{"5", http.StatusOK, []int32{0, 1}}, // overlap node
		{"9", http.StatusOK, []int32{1}},
		{"10", http.StatusNotFound, nil},
		{"-1", http.StatusNotFound, nil},
		{"zebra", http.StatusBadRequest, nil},
	}
	for _, tt := range tests {
		var got nodeCommunitiesResponse
		code := getJSON(t, ts.URL+"/v1/node/"+tt.node+"/communities", &got)
		if code != tt.wantCode {
			t.Errorf("node %s: status = %d, want %d", tt.node, code, tt.wantCode)
			continue
		}
		if tt.wantCode != http.StatusOK {
			continue
		}
		if got.Count != len(tt.wantComms) {
			t.Errorf("node %s: count = %d, want %d", tt.node, got.Count, len(tt.wantComms))
			continue
		}
		for i, ref := range got.Communities {
			if ref.ID != tt.wantComms[i] {
				t.Errorf("node %s: community[%d] = %d, want %d", tt.node, i, ref.ID, tt.wantComms[i])
			}
			if ref.Size != 6 {
				t.Errorf("node %s: community %d size = %d, want 6", tt.node, ref.ID, ref.Size)
			}
			if ref.Members != nil {
				t.Errorf("node %s: members included without ?members=1", tt.node)
			}
		}
	}
}

func TestNodeCommunitiesWithMembers(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var got nodeCommunitiesResponse
	if code := getJSON(t, ts.URL+"/v1/node/0/communities?members=1", &got); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(got.Communities) != 1 || len(got.Communities[0].Members) != 6 {
		t.Fatalf("got %+v, want one community with 6 members", got)
	}
}

func TestCoverStats(t *testing.T) {
	_, ts := newTestServer(t, Config{OCA: core.Options{C: 0.5}})
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/cover/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.Nodes != 10 || st.Communities != 2 || st.CoveredNodes != 10 ||
		st.OverlapNodes != 2 || st.MaxMembership != 2 || st.C != 0.5 {
		t.Errorf("stats = %+v", st)
	}
	if st.Coverage != 1 {
		t.Errorf("coverage = %g, want 1", st.Coverage)
	}
}

func TestSearch(t *testing.T) {
	_, ts := newTestServer(t, Config{OCA: core.Options{C: 0.5}})
	var got SearchResponse
	req := SearchRequest{Seed: 0, RNGSeed: 7}
	if code := postJSON(t, ts.URL+"/v1/search", req, &got); code != http.StatusOK {
		t.Fatalf("search status = %d", code)
	}
	if got.Seed != 0 || got.Size == 0 || got.Size != len(got.Members) {
		t.Fatalf("search response = %+v", got)
	}
	// The seeded search from inside clique A must find clique members.
	found := map[int32]bool{}
	for _, v := range got.Members {
		found[v] = true
	}
	if !found[0] {
		t.Errorf("community %v does not contain its seed", got.Members)
	}
	// Determinism: same rng seed and parameters, same community.
	var again SearchResponse
	if code := postJSON(t, ts.URL+"/v1/search", req, &again); code != http.StatusOK {
		t.Fatalf("repeat search status = %d", code)
	}
	if fmt.Sprint(again.Members) != fmt.Sprint(got.Members) {
		t.Errorf("search not deterministic: %v vs %v", got.Members, again.Members)
	}
}

func TestSearchErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{OCA: core.Options{C: 0.5}})
	if code := postJSON(t, ts.URL+"/v1/search", SearchRequest{Seed: 99}, nil); code != http.StatusNotFound {
		t.Errorf("out-of-range seed: status = %d, want 404", code)
	}
	if code := postJSON(t, ts.URL+"/v1/search", SearchRequest{Seed: 0, C: 1.5}, nil); code != http.StatusBadRequest {
		t.Errorf("invalid c: status = %d, want 400", code)
	}
	// Negative max_steps means "unlimited" inside core; the server must
	// reject it rather than let one request hold a pool worker forever.
	if code := postJSON(t, ts.URL+"/v1/search", SearchRequest{Seed: 0, MaxSteps: -1}, nil); code != http.StatusBadRequest {
		t.Errorf("negative max_steps: status = %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/search", SearchRequest{Seed: 0, NeighborProb: -0.5}, nil); code != http.StatusBadRequest {
		t.Errorf("negative neighbor_prob: status = %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/search", SearchRequest{Seed: 0, NeighborProb: 50}, nil); code != http.StatusBadRequest {
		t.Errorf("neighbor_prob > 1: status = %d, want 400", code)
	}
	// A huge finite step budget is accepted but clamped to the server's
	// cap rather than trusted verbatim.
	if code := postJSON(t, ts.URL+"/v1/search", SearchRequest{Seed: 0, MaxSteps: 2_000_000_000, RNGSeed: 1}, nil); code != http.StatusOK {
		t.Errorf("huge max_steps: status = %d, want 200 (clamped)", code)
	}
}

// TestSearchStepCapWithUnlimitedConfig pins the invariant that even a
// server configured with unlimited batch steps (OCA.MaxSteps < 0, legal
// in core.Options) never runs a network-triggered search unbounded.
func TestSearchStepCapWithUnlimitedConfig(t *testing.T) {
	s, err := NewWithCover(twoCliqueGraph(t), fixedCover(), Config{
		OCA: core.Options{C: 0.5, MaxSteps: -1},
	})
	if err != nil {
		t.Fatalf("NewWithCover: %v", err)
	}
	if s.stepCap != 100000 {
		t.Fatalf("stepCap = %d, want core default 100000", s.stepCap)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var got SearchResponse
	if code := postJSON(t, ts.URL+"/v1/search", SearchRequest{Seed: 0, RNGSeed: 1}, &got); code != http.StatusOK {
		t.Fatalf("search status = %d", code)
	}
	if got.Size == 0 {
		t.Errorf("search returned empty community: %+v", got)
	}
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader([]byte(`{"bogus":`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status = %d, want 400", resp.StatusCode)
	}
}

func TestSearchOversizedBody(t *testing.T) {
	s, err := NewWithCover(twoCliqueGraph(t), fixedCover(), Config{
		OCA:            core.Options{C: 0.5},
		MaxRequestBody: 64,
	})
	if err != nil {
		t.Fatalf("NewWithCover: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	big := append([]byte(`{"seed":0,"rng_seed":`), bytes.Repeat([]byte("1"), 200)...)
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d, want 413", resp.StatusCode)
	}
}

func TestNewWithCoverRejectsMismatchedCover(t *testing.T) {
	g := twoCliqueGraph(t) // 10 nodes
	bad := cover.NewCover([]cover.Community{{0, 1, 99}})
	if _, err := NewWithCover(g, bad, Config{OCA: core.Options{C: 0.5}}); err == nil {
		t.Fatal("NewWithCover accepted a cover with node 99 on a 10-node graph")
	}
}

func TestLazyCoverBuild(t *testing.T) {
	g := twoCliqueGraph(t)
	s, err := New(g, Config{Lazy: true, OCA: core.Options{Seed: 42, C: 0.5, Workers: 2}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// healthz must respond without triggering the build.
	var h healthzResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if h.CoverReady {
		t.Fatal("lazy server reported cover_ready before first cover request")
	}

	// search works pre-build (needs only c, not the cover).
	if code := postJSON(t, ts.URL+"/v1/search", SearchRequest{Seed: 0, RNGSeed: 1}, nil); code != http.StatusOK {
		t.Fatalf("pre-build search status = %d", code)
	}
	if s.sp.Ready() {
		t.Fatal("search must not force the OCA run")
	}

	// First stats request forces the build.
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/cover/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.Communities == 0 {
		t.Errorf("lazy OCA run found no communities: %+v", st)
	}
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || !h.CoverReady {
		t.Errorf("cover_ready not reported after build (code %d, %+v)", code, h)
	}
}

// TestConcurrentTraffic hammers every endpoint from many goroutines;
// run under -race this is the concurrency acceptance test.
func TestConcurrentTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{OCA: core.Options{C: 0.5}, SearchWorkers: 2})
	client := ts.Client()
	const workers = 8
	const reps = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*reps*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				node := (w*reps + i) % 10
				resp, err := client.Get(fmt.Sprintf("%s/v1/node/%d/communities", ts.URL, node))
				if err != nil {
					errs <- err
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET node %d: status %d", node, resp.StatusCode)
				}

				payload, _ := json.Marshal(SearchRequest{Seed: int32(node), RNGSeed: int64(i + 1)})
				resp, err = client.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(payload))
				if err != nil {
					errs <- err
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("POST search seed %d: status %d", node, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentLazyBuild races many first requests against a lazy
// cover build; exactly one OCA run must happen and all must succeed.
func TestConcurrentLazyBuild(t *testing.T) {
	g := twoCliqueGraph(t)
	s, err := New(g, Config{Lazy: true, OCA: core.Options{Seed: 7, C: 0.5, Workers: 2}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// No t.Fatalf helpers here: FailNow must not run off the
			// test goroutine.
			resp, err := http.Get(fmt.Sprintf("%s/v1/node/%d/communities", ts.URL, w))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("worker %d: status %d", w, resp.StatusCode)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRequestTimeout(t *testing.T) {
	// One worker and a held state: the second search must time out
	// rather than wait forever.
	s, err := NewWithCover(twoCliqueGraph(t), fixedCover(), Config{
		OCA:            core.Options{C: 0.5},
		SearchWorkers:  1,
		RequestTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewWithCover: %v", err)
	}
	// Drain the pool slot (a nil token until first use) so the request
	// cannot acquire a state.
	st := <-s.pool
	defer func() { s.pool <- st }()

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	payload, _ := json.Marshal(SearchRequest{Seed: 0})
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("saturated pool: status = %d, want 503", resp.StatusCode)
	}
	// Whether the handler or the TimeoutHandler answered first, the
	// error must arrive as JSON.
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("timeout response Content-Type = %q, want application/json", ct)
	}
}
