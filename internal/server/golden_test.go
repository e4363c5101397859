package server

// Golden-response suite: every public route, replayed as one fixed
// request script against every way a Server can be constructed, with
// status codes, content types and bodies compared byte-for-byte against
// files recorded before the read path was rewritten
// (testdata/golden/*.golden). Only wall-clock and environment values are
// normalised before comparing: `*_millis`, the /healthz `requests`
// summary, latency `buckets`, `last_segment_at`, and the temporary data
// directory's path. Re-record with `go test ./internal/server -run
// TestGoldenResponses -update-golden=true` — and read the diff. Only
// k1-cover.golden serves a c derived by internal/spectral (the others
// pin c), so a change to that kernel moves the `c` and `fitness` fields
// of that one file: `go test ./internal/server -run
// TestGoldenResponses/k1-cover -update-golden=true`. Only
// k1-persist.golden reports a `wal_bytes` (/healthz, /debug/metrics,
// ocad_persist_wal_bytes), the size of a WAL holding four batches, four
// publish markers and their cover patches: a change to what a publish
// logs moves that one number in those three places and nothing else.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/shard"
	"repro/internal/transport"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/*.golden from the current responses")

type goldenStep struct {
	method, path, body string
}

func get(path string) goldenStep { return goldenStep{method: http.MethodGet, path: path} }
func post(path, body string) goldenStep {
	return goldenStep{method: http.MethodPost, path: path, body: body}
}

// goldenObservability are the routes that must answer without forcing a
// lazy cover build; the lazy scenario replays them before anything else.
var goldenObservability = []goldenStep{
	get("/healthz"),
	get("/debug/metrics"),
	get("/debug/metrics?format=prometheus"),
	post("/v1/search", `{"seed":4,"rng_seed":7}`),
	get("/healthz"),
}

// goldenScript is the request script every scenario replays. Mutations
// either wait or are followed by a waiting one before the next read, and
// scenarios run with a debounce far longer than the test, so every
// response is a function of the script alone.
var goldenScript = []goldenStep{
	get("/healthz"),
	get("/v1/cover/stats"),
	get("/v1/cover/export"),
	get("/v1/cover/export?generation=1"),
	get("/v1/node/4/communities"),
	get("/v1/node/4/communities?members=1"),
	get("/v1/node/0/communities?members=true"),
	get("/v1/node/99/communities"),
	get("/v1/node/-1/communities"),
	get("/v1/node/abc/communities"),
	post("/v1/nodes/communities", `{"ids":[4,5,4,99,-1],"members":true,"shared":true}`),
	post("/v1/nodes/communities", `{"ids":[0,9],"shared":true}`),
	post("/v1/nodes/communities", `{"ids":[3]}`),
	post("/v1/nodes/communities", `{"ids":[]}`),
	post("/v1/nodes/communities", `{"ids":[1],"bogus":true}`),
	post("/v1/search", `{"seed":4,"rng_seed":7}`),
	post("/v1/search", `{"seed":4,"rng_seed":7}`),
	post("/v1/search", `{"seed":8}`),
	post("/v1/search", `{"seed":0,"rng_seed":3,"c":0.3,"max_steps":50,"max_community_size":4}`),
	post("/v1/search", `{"seed":99}`),
	post("/v1/search", `{"seed":-2}`),
	post("/v1/search", `{"seed":0,"c":1.5}`),
	post("/v1/search", `{"seed":0,"max_steps":-1}`),
	post("/v1/search", `{"seed":0,"neighbor_prob":2}`),
	post("/v1/search", `{"seed":`),
	get("/v1/cover/stats"),
	post("/v1/edges", `{"add":[[0,9]],"wait":true}`),
	post("/v1/edges", `{"add":[[1,8]]}`),
	post("/v1/edges", `{"remove":[[0,9]],"add":[[2,17]],"wait":true}`),
	post("/v1/edges", `{"add":[[3,3]]}`),
	post("/v1/edges", `{"add":[[0,640]]}`),
	post("/v1/edges", `{}`),
	post("/v1/edges", `{"add":[[0,1]],"nope":1}`),
	get("/v1/node/17/communities?members=1"),
	get("/v1/node/18/communities"),
	post("/v1/nodes/communities", `{"ids":[2,17,8],"shared":true,"members":true}`),
	post("/v1/search", `{"seed":4,"rng_seed":7}`),
	post("/v1/search", `{"seed":17,"rng_seed":5}`),
	post("/v1/admin/rebalance", `{"lo":0,"hi":0,"from":0,"to":0}`),
	post("/v1/admin/rebalance", `{"lo":0,"hi":4,"from":0,"to":1}`),
	post("/v1/admin/halo-refresh", ``),
	// The sweep queues halo edges without waiting; flush both shards so
	// the reads below see a quiescent, script-determined state.
	post("/v1/edges", `{"add":[[4,5]],"wait":true}`),
	get("/v1/node/2/communities?members=1"),
	post("/v1/nodes/communities", `{"ids":[0,2,4],"shared":true}`),
	get("/v1/cover/stats"),
	get("/v1/cover/export"),
	get("/healthz"),
	get("/debug/metrics"),
	get("/debug/metrics?format=prometheus"),
}

// goldenGraph is a chain of three cliques of sizes 5, 6 and 8 sharing
// one node per link (4 and 9): overlapping memberships, and community
// sizes whose means are not integers, so float aggregation is exercised.
func goldenGraph() *graph.Graph {
	b := graph.NewBuilder(17)
	for _, c := range goldenCover().Communities {
		for i, u := range c {
			for _, v := range c[i+1:] {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func goldenCover() *cover.Cover {
	return cover.NewCover([]cover.Community{
		{0, 1, 2, 3, 4},
		{4, 5, 6, 7, 8, 9},
		{9, 10, 11, 12, 13, 14, 15, 16},
	})
}

// goldenConfig pins everything a response can depend on: the OCA seed
// and c, a debounce no test outlives (only waiting mutations publish),
// and a growth cap so node-set growth is exercised.
func goldenConfig() Config {
	return Config{
		OCA:                  core.Options{Seed: 1, C: 0.5},
		RefreshDebounce:      time.Hour,
		MaxNodes:             64,
		IncrementalThreshold: 0.5,
	}
}

// normalizeJSON rewrites the wall-clock values of one JSON document in
// place, preserving every other byte (key order, number formatting).
func normalizeJSON(raw []byte, key string) []byte {
	switch {
	case strings.HasSuffix(key, "_millis"), strings.HasPrefix(key, "mirror_"), key == "chain_misses":
		// Wall clock; and the mirror counters, which count syncs as the
		// poller and the flushes happen to split them.
		return []byte("0")
	case key == "requests", key == "buckets", key == "last_segment_at":
		return []byte("null")
	}
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 || (raw[0] != '{' && raw[0] != '[') {
		return raw
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if _, err := dec.Token(); err != nil {
		return raw
	}
	var out bytes.Buffer
	out.WriteByte(raw[0])
	for first := true; dec.More(); first = false {
		if !first {
			out.WriteByte(',')
		}
		k := ""
		if raw[0] == '{' {
			tok, err := dec.Token()
			if err != nil {
				return raw
			}
			k = tok.(string)
			kb, _ := json.Marshal(k)
			out.Write(kb)
			out.WriteByte(':')
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return raw
		}
		out.Write(normalizeJSON(v, k))
	}
	out.WriteByte(raw[0] + 2) // '{'+2 == '}', '['+2 == ']'
	return out.Bytes()
}

// promMirrorValue matches the Prometheus samples of the mirror counters,
// normalized like their JSON twins.
var promMirrorValue = regexp.MustCompile(`(?m)^((?:ocad_mirror_|ocad_chain_misses)\S*) \d+$`)

// replayGolden runs steps against h and appends the transcript to out.
// settle, when set, runs after every step (the remote scenario waits for
// its mirrored statuses to catch up with the shard processes).
func replayGolden(t *testing.T, out *bytes.Buffer, h http.Handler, steps []goldenStep, settle func(), scrub ...string) {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	for _, st := range steps {
		req, err := http.NewRequest(st.method, ts.URL+st.path, strings.NewReader(st.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", st.method, st.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: reading body: %v", st.method, st.path, err)
		}
		ct := resp.Header.Get("Content-Type")
		if ct == "application/json" {
			body = append(normalizeJSON(body, ""), '\n')
		}
		body = promMirrorValue.ReplaceAll(body, []byte("$1 0"))
		for _, s := range scrub {
			body = bytes.ReplaceAll(body, []byte(s), []byte("DATA_DIR"))
		}
		fmt.Fprintf(out, "### %s %s %s\n%d %s\n%s\n", st.method, st.path, st.body, resp.StatusCode, ct, body)
		if settle != nil {
			settle()
		}
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (record with -update-golden): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			step := ""
			for j := i; j >= 0; j-- {
				if strings.HasPrefix(gl[j], "### ") {
					step = gl[j]
					break
				}
			}
			t.Fatalf("%s differs at line %d (%s):\n got: %s\nwant: %s", path, i+1, step, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
}

func TestGoldenResponses(t *testing.T) {
	t.Run("k1-eager", func(t *testing.T) {
		s, err := New(goldenGraph(), goldenConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var out bytes.Buffer
		replayGolden(t, &out, s.Handler(), goldenScript, nil)
		checkGolden(t, "k1-eager", out.Bytes())
	})

	t.Run("k1-lazy", func(t *testing.T) {
		cfg := goldenConfig()
		cfg.Lazy = true
		s, err := New(goldenGraph(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var out bytes.Buffer
		h := s.Handler()
		replayGolden(t, &out, h, goldenObservability, nil)
		replayGolden(t, &out, h, goldenScript, nil)
		checkGolden(t, "k1-lazy", out.Bytes())
	})

	// A preloaded cover with no pinned c: the parameter is absent from
	// /v1/cover/stats until the first search derives it from the spectrum.
	t.Run("k1-cover", func(t *testing.T) {
		cfg := goldenConfig()
		cfg.OCA.C = 0
		s, err := NewWithCover(goldenGraph(), goldenCover(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var out bytes.Buffer
		replayGolden(t, &out, s.Handler(), goldenScript, nil)
		checkGolden(t, "k1-cover", out.Bytes())
	})

	// Durable K=1: a cold start that logs and seals, a clean shutdown,
	// then NewWithSnapshot over the recovered state — with the
	// point-in-time export answering retained, live, unretained and
	// malformed generations.
	t.Run("k1-persist", func(t *testing.T) {
		dir := t.TempDir()
		cfg := goldenConfig()
		var out bytes.Buffer

		store, err := persist.Open(persist.Options{Dir: dir, SegmentEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Persist = store
		s, err := New(goldenGraph(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		replayGolden(t, &out, s.Handler(), []goldenStep{
			get("/healthz"),
			post("/v1/edges", `{"add":[[0,9]],"wait":true}`),
			post("/v1/edges", `{"add":[[1,8]],"wait":true}`),
			get("/v1/cover/export?generation=1"),
			get("/v1/cover/export?generation=3"),
			get("/healthz"),
			get("/debug/metrics?format=prometheus"),
		}, nil, dir)
		s.Close()
		store.Close()

		ds := openSingle(t, dir, cfg.OCA)
		defer ds.Store.Close()
		cfg.Persist = ds.Store
		s, err = NewWithSnapshot(ds.Recovered, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		h := s.Handler()
		replayGolden(t, &out, h, goldenScript, nil, dir)
		replayGolden(t, &out, h, []goldenStep{
			get("/v1/cover/export?generation=3"), // retained segment
			get("/v1/cover/export?generation=4"), // live, not yet sealed
			get("/v1/cover/export?generation=99"),
			get("/v1/cover/export?generation=bogus"),
		}, nil, dir)
		checkGolden(t, "k1-persist", out.Bytes())
	})

	t.Run("k2-inprocess", func(t *testing.T) {
		cfg := goldenConfig()
		cfg.Shards = 2
		s, err := New(goldenGraph(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var out bytes.Buffer
		replayGolden(t, &out, s.Handler(), goldenScript, nil)
		checkGolden(t, "k2-inprocess", out.Bytes())
	})

	// The multi-process router role: two shard workers behind real wire
	// protocol servers, fronted through transport.Dial + NewWithProvider.
	t.Run("k2-remote", func(t *testing.T) {
		g := goldenGraph()
		cfg := goldenConfig()
		pieces, err := shard.Split(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		addrs := make([]string, len(pieces))
		workers := make([]*shard.Worker, len(pieces))
		for i, piece := range pieces {
			w, err := shard.NewWorker(piece, 2, shard.Config{
				OCA:                  cfg.OCA,
				Debounce:             cfg.RefreshDebounce,
				IncrementalThreshold: cfg.IncrementalThreshold,
			}, cfg.MaxNodes)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			workers[i] = w
			ss := httptest.NewServer(transport.NewShardServer(w, transport.ServerConfig{GlobalNodes: g.N(), MaxNodes: cfg.MaxNodes}).Handler())
			defer ss.Close()
			addrs[i] = ss.URL
		}
		rt, err := transport.Dial(context.Background(), addrs, transport.Options{
			Client:         transport.ClientConfig{PollInterval: 5 * time.Millisecond},
			ConnectTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewWithProvider(rt, cfg)
		if err != nil {
			rt.Close()
			t.Fatal(err)
		}
		defer s.Close()
		// The router's queue-side fields come from its last health probe
		// of each shard; wait until the probes (and the mirrors) have caught
		// up with what the shard workers actually hold.
		settle := func() {
			deadline := time.Now().Add(10 * time.Second)
			for {
				views, _ := rt.Views()
				current := true
				for i, st := range rt.Statuses() {
					real := workers[i].Status().Status
					if st.Err != "" || st.Status.Pending != real.Pending || st.Status.Rebuilding != real.Rebuilding ||
						st.Status.Gen != real.Gen || views[i].Snap.Gen != real.Gen {
						current = false
					}
				}
				if current {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("remote statuses never settled: %+v", rt.Statuses())
				}
				time.Sleep(time.Millisecond)
			}
		}
		var out bytes.Buffer
		replayGolden(t, &out, s.Handler(), goldenScript, settle)
		checkGolden(t, "k2-remote", out.Bytes())
	})
}
