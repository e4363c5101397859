package faultinject

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"ok":true,"pad":"....................................."}`))
	})
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		plan Plan
		ok   bool
	}{
		{Plan{}, true},
		{Plan{Rules: []Rule{{ErrorRate: 0.5, LatencyMs: 10}}}, true},
		{Plan{Rules: []Rule{{ErrorRate: 1.5}}}, false},
		{Plan{Rules: []Rule{{TruncateRate: -0.1}}}, false},
		{Plan{Rules: []Rule{{LatencyMs: -1}}}, false},
	}
	for i, tc := range cases {
		if err := tc.plan.Validate(); (err == nil) != tc.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, tc.ok)
		}
	}
}

func TestLoadPlan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(path, []byte(`{"seed":7,"rules":[{"path":"/shard/","latency_ms":5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlan(path)
	if err != nil {
		t.Fatalf("LoadPlan: %v", err)
	}
	if p.Seed != 7 || len(p.Rules) != 1 || p.Rules[0].Path != "/shard/" {
		t.Fatalf("loaded plan: %+v", p)
	}
	if _, err := LoadPlan(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
	bad := filepath.Join(dir, "bad.json")
	_ = os.WriteFile(bad, []byte(`{"rules":[{"error_rate":2}]}`), 0o644)
	if _, err := LoadPlan(bad); err == nil {
		t.Error("invalid plan loaded")
	}
}

// TestMiddlewarePathTargeting: only matching paths are touched, and
// the first matching rule wins.
func TestMiddlewarePathTargeting(t *testing.T) {
	in := New(Plan{Seed: 1, Rules: []Rule{
		{Path: "/shard/v1/lookup", ErrorRate: 1},
		{Path: "/shard/", ErrorRate: 0},
	}})
	ts := httptest.NewServer(in.Middleware(okHandler()))
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := get("/shard/v1/lookup"); code != http.StatusInternalServerError {
		t.Errorf("targeted path = %d, want 500", code)
	}
	if code := get("/shard/v1/health"); code != http.StatusOK {
		t.Errorf("first-match rule should pass health through, got %d", code)
	}
	if code := get("/v1/other"); code != http.StatusOK {
		t.Errorf("unmatched path = %d, want 200", code)
	}
	if c := in.Counters(); c.Errored == 0 || c.Matched < 2 {
		t.Errorf("counters: %+v", c)
	}
}

// TestDeterministicReplay: same seed, same request sequence → same
// fault decisions; SetPlan re-seeds.
func TestDeterministicReplay(t *testing.T) {
	plan := Plan{Seed: 42, Rules: []Rule{{ErrorRate: 0.5}}}
	run := func() []int {
		in := New(plan)
		ts := httptest.NewServer(in.Middleware(okHandler()))
		defer ts.Close()
		var codes []int
		for i := 0; i < 32; i++ {
			resp, err := http.Get(ts.URL + "/x")
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes = append(codes, resp.StatusCode)
		}
		return codes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at request %d: %v vs %v", i, a, b)
		}
	}
	// Both outcomes must actually occur at rate 0.5 over 32 draws.
	saw := map[int]bool{}
	for _, c := range a {
		saw[c] = true
	}
	if !saw[200] || !saw[500] {
		t.Fatalf("error_rate 0.5 produced one-sided outcomes: %v", a)
	}
}

// TestLatencyInjection: a latency rule delays matching requests.
func TestLatencyInjection(t *testing.T) {
	in := New(Plan{Rules: []Rule{{LatencyMs: 60, JitterMs: 20}}})
	ts := httptest.NewServer(in.Middleware(okHandler()))
	defer ts.Close()
	start := time.Now()
	resp, err := http.Get(ts.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Errorf("request took %v, want >= 60ms", d)
	}
	if c := in.Counters(); c.Delayed != 1 {
		t.Errorf("delayed = %d, want 1", c.Delayed)
	}
}

// TestBlackhole: the request hangs until the client's deadline, and
// the client sees a transport-level failure, not a clean response.
func TestBlackhole(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Blackhole: true}}})
	ts := httptest.NewServer(in.Middleware(okHandler()))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/x", nil)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatal("blackholed request answered")
	}
	if d := time.Since(start); d < 90*time.Millisecond {
		t.Errorf("blackholed request failed after %v, want to hang to the deadline", d)
	}
	if c := in.Counters(); c.Blackholed != 1 {
		t.Errorf("blackholed = %d, want 1", c.Blackholed)
	}
}

// TestTornResponse: a truncated response lets a prefix through and
// then breaks the body mid-stream.
func TestTornResponse(t *testing.T) {
	in := New(Plan{Rules: []Rule{{TruncateRate: 1}}})
	ts := httptest.NewServer(in.Middleware(okHandler()))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/x")
	if err == nil {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil && len(body) > tornResponseBytes {
			t.Fatalf("torn response delivered %d clean bytes: %q", len(body), body)
		}
	}
	if c := in.Counters(); c.Truncated != 1 {
		t.Errorf("truncated = %d, want 1", c.Truncated)
	}
}

// TestControlEndpoint: GET reads the plan, PUT swaps it (and bad plans
// are refused), faults apply immediately after the swap.
func TestControlEndpoint(t *testing.T) {
	in := New(Plan{})
	ts := httptest.NewServer(in.Handler(okHandler()))
	defer ts.Close()

	// Initially clean.
	resp, err := http.Get(ts.URL + "/x")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-plan request: %v %v", resp, err)
	}
	resp.Body.Close()

	put := func(body string) int {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+ControlPath, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := put(`{"seed":1,"rules":[{"error_rate":1}]}`); code != http.StatusOK {
		t.Fatalf("PUT plan = %d", code)
	}
	resp, err = http.Get(ts.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("post-plan request = %d, want 500", resp.StatusCode)
	}

	// GET returns the active plan and counters; the control path itself
	// is never injected.
	resp, err = http.Get(ts.URL + ControlPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Plan     Plan     `json:"plan"`
		Injected Counters `json:"injected"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decoding control GET: %v", err)
	}
	if len(got.Plan.Rules) != 1 || got.Plan.Rules[0].ErrorRate != 1 || got.Injected.Errored == 0 {
		t.Errorf("control GET: %+v", got)
	}

	if code := put(`{"rules":[{"error_rate":9}]}`); code != http.StatusBadRequest {
		t.Errorf("invalid plan PUT = %d, want 400", code)
	}
	if code := put(`not json`); code != http.StatusBadRequest {
		t.Errorf("garbage PUT = %d, want 400", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+ControlPath, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE = %d, want 405", dresp.StatusCode)
	}

	// Clearing the plan restores clean serving.
	if code := put(`{}`); code != http.StatusOK {
		t.Fatalf("clearing PUT = %d", code)
	}
	resp2, err := http.Get(ts.URL + "/x")
	if err != nil || resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-clear request: %v %v", resp2, err)
	}
	resp2.Body.Close()
}
