package transport

// Deterministic unit tests for the client's resilience wiring: which
// RPCs retry (and which never do), how the breaker trips and fast-
// fails, how caller hang-ups are classified, and how the deadline
// header is stamped and enforced. Everything here runs against local
// scripted HTTP servers — no processes, no sleeps beyond the faults
// themselves.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/refresh"
	"repro/internal/shard"
)

// scriptedBackend is an httptest server whose handler is swappable per
// test leg, counting hits per path.
type scriptedBackend struct {
	*httptest.Server
	hits    atomic.Int64
	handler atomic.Value // http.HandlerFunc
}

func newScriptedBackend(t *testing.T) *scriptedBackend {
	t.Helper()
	sb := &scriptedBackend{}
	sb.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unscripted", http.StatusTeapot)
	}))
	sb.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sb.hits.Add(1)
		sb.handler.Load().(http.HandlerFunc)(w, r)
	}))
	t.Cleanup(sb.Close)
	return sb
}

func (sb *scriptedBackend) script(h http.HandlerFunc) { sb.handler.Store(h) }

// abort kills the connection mid-response: the client observes a
// transport-level error, which is what the retryer classifies as
// transient.
func abort(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) }

// TestApplyNeverRetries: a failed apply reaches the server exactly
// once — mutations are not idempotent at this layer, so the retry
// policy must never touch them.
func TestApplyNeverRetries(t *testing.T) {
	sb := newScriptedBackend(t)
	sb.script(abort)
	c := newClient(sb.URL, 0, 1, ClientConfig{RequestTimeout: 2 * time.Second})
	defer c.Close()

	err := c.Apply(context.Background(), [][2]int32{{0, 1}}, nil)
	if err == nil {
		t.Fatal("apply against aborting backend succeeded")
	}
	if !errors.Is(err, shard.ErrUnavailable) {
		t.Errorf("apply error = %v, want ErrUnavailable", err)
	}
	if got := sb.hits.Load(); got != 1 {
		t.Fatalf("failed apply hit the server %d times, want exactly 1 (apply must never retry)", got)
	}
	if st := c.ResilienceStats(); st.Retries != 0 {
		t.Errorf("retries = %d after failed apply, want 0", st.Retries)
	}
}

// TestLookupRetriesTransientFailure: a torn connection on the first
// lookup attempt is retried and the second attempt's answer is
// returned — with the spend visible in the retry counter.
func TestLookupRetriesTransientFailure(t *testing.T) {
	sb := newScriptedBackend(t)
	var attempt atomic.Int64
	sb.script(func(w http.ResponseWriter, r *http.Request) {
		if attempt.Add(1) == 1 {
			abort(w, r)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(LookupResponse{Generation: 3})
	})
	c := newClient(sb.URL, 0, 1, ClientConfig{RequestTimeout: 2 * time.Second})
	defer c.Close()

	resp, err := c.LookupRemote(context.Background(), []int32{0}, false)
	if err != nil {
		t.Fatalf("LookupRemote with one torn attempt: %v", err)
	}
	if resp.Generation != 3 {
		t.Errorf("generation = %d, want 3 (the retried attempt's answer)", resp.Generation)
	}
	if got := sb.hits.Load(); got != 2 {
		t.Errorf("lookup hit the server %d times, want 2 (fail, retry)", got)
	}
	if st := c.ResilienceStats(); st.Retries != 1 {
		t.Errorf("retries = %d, want 1", st.Retries)
	}
}

// TestBreakerTripsAndFastFails: consecutive transport failures open
// the breaker; once open, RPCs are refused locally (no network hit)
// and the refusal is counted and non-retryable.
func TestBreakerTripsAndFastFails(t *testing.T) {
	sb := newScriptedBackend(t)
	sb.script(abort)
	c := newClient(sb.URL, 0, 1, ClientConfig{RequestTimeout: 2 * time.Second})
	defer c.Close()

	// Each lookup burns up to MaxAttempts failures; a handful is more
	// than the breaker threshold.
	for i := 0; i < 3; i++ {
		if _, err := c.LookupRemote(context.Background(), []int32{0}, false); err == nil {
			t.Fatal("lookup against aborting backend succeeded")
		}
	}
	st := c.ResilienceStats()
	if st.BreakerState != "open" || st.BreakerTrips < 1 {
		t.Fatalf("breaker after failure burst: %+v, want open with >= 1 trip", st)
	}
	if !c.BreakerOpen() {
		t.Error("BreakerOpen() = false with an open breaker")
	}

	before := sb.hits.Load()
	_, err := c.LookupRemote(context.Background(), []int32{0}, false)
	if err == nil {
		t.Fatal("lookup with open breaker succeeded")
	}
	if !errors.Is(err, shard.ErrUnavailable) {
		t.Errorf("fast-fail error = %v, want ErrUnavailable", err)
	}
	if got := sb.hits.Load(); got != before {
		t.Errorf("open breaker still sent %d requests to the backend", got-before)
	}
	if st := c.ResilienceStats(); st.BreakerFastFails < 1 {
		t.Errorf("fast fails = %d, want >= 1", st.BreakerFastFails)
	}
}

// TestCancelCountsDeadlineNotBreaker: a caller hang-up says nothing
// about the backend's health — it must increment the deadline-exceeded
// counter and leave the breaker closed.
func TestCancelCountsDeadlineNotBreaker(t *testing.T) {
	sb := newScriptedBackend(t)
	release := make(chan struct{})
	sb.script(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})
	defer close(release)
	c := newClient(sb.URL, 0, 1, ClientConfig{RequestTimeout: 30 * time.Second})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := c.LookupRemote(ctx, []int32{0}, false); err == nil {
		t.Fatal("lookup survived caller cancellation")
	}
	st := c.ResilienceStats()
	if st.DeadlineExceeded < 1 {
		t.Errorf("deadline_exceeded = %d after caller hang-up, want >= 1", st.DeadlineExceeded)
	}
	if st.BreakerState != "closed" || st.BreakerTrips != 0 {
		t.Errorf("breaker after caller hang-up: %+v, want closed with 0 trips (cancellation is not backend failure evidence)", st)
	}
}

// TestDeadlineHeaderStamped: RPCs under a context deadline carry
// Ocad-Deadline-Ms with the remaining budget; RPCs without one omit
// it.
func TestDeadlineHeaderStamped(t *testing.T) {
	sb := newScriptedBackend(t)
	var header atomic.Value
	sb.script(func(w http.ResponseWriter, r *http.Request) {
		header.Store(r.Header.Get(HeaderDeadline))
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(LookupResponse{Generation: 1})
	})
	c := newClient(sb.URL, 0, 1, ClientConfig{RequestTimeout: 10 * time.Second})
	defer c.Close()

	// The client always bounds lookups by RequestTimeout, so the header
	// must be present and positive, at most the full budget.
	if _, err := c.LookupRemote(context.Background(), []int32{0}, false); err != nil {
		t.Fatalf("LookupRemote: %v", err)
	}
	raw, _ := header.Load().(string)
	if raw == "" {
		t.Fatal("lookup RPC carried no Ocad-Deadline-Ms header")
	}
	var ms int64
	if _, err := fmt.Sscanf(raw, "%d", &ms); err != nil || ms < 1 || ms > 10_000 {
		t.Errorf("Ocad-Deadline-Ms = %q, want integer in [1, 10000]", raw)
	}
}

// TestDeadlineHeaderEnforced: the shard server's middleware rejects a
// malformed header with 400 bad_request, and a budget that lapses
// while a flush waits on its publish sheds the request with 504
// deadline_exceeded — visible in the health counter.
func TestDeadlineHeaderEnforced(t *testing.T) {
	// The shed path needs a handler that genuinely blocks; lookups
	// answer too fast to ever observe an expired budget. A flush blocks
	// for as long as its rebuild does, and the rebuild is gated here,
	// not timed: OnSwap runs on the worker goroutine after a publish, so
	// while it is parked on release no further rebuild can start.
	g := twoCliques(t)
	pieces, err := shard.Split(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	w, err := shard.NewWorker(pieces[0], 1, shard.Config{
		OCA:    testOCA(),
		OnSwap: func(int, *refresh.Snapshot) { <-release },
	}, g.N())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ss := NewShardServer(w, ServerConfig{GlobalNodes: g.N(), MaxNodes: g.N()})
	ts := httptest.NewServer(ss.Handler())
	defer ts.Close()
	base := ts.URL

	send := func(deadline string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+PathLookup,
			strings.NewReader(fmt.Sprintf(`{"protocol":%d,"ids":[0]}`, Version)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(HeaderDeadline, deadline)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er.Code
	}

	for _, bad := range []string{"soon", "-5", "0", "1.5"} {
		if code, ec := send(bad); code != http.StatusBadRequest || ec != CodeBadRequest {
			t.Errorf("deadline header %q = %d %q, want 400 bad_request", bad, code, ec)
		}
	}
	// A generous budget passes through untouched.
	if code, _ := send("30000"); code != http.StatusOK {
		t.Errorf("lookup with 30s budget = %d, want 200", code)
	}

	// Publish once — the flush returns, the worker goroutine stays
	// parked in OnSwap — then queue a second mutation and flush it with
	// a 1ms budget: its rebuild cannot start, so the wait outlives the
	// budget and the server sheds the flush rather than holding an
	// abandoned connection.
	c := newClient(base, 0, 1, ClientConfig{RequestTimeout: 2 * time.Second})
	defer c.Close()
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark() // a failed assertion must not wedge w.Close
	if err := c.Apply(context.Background(), [][2]int32{{0, 9}}, nil); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if _, err := c.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := c.Apply(context.Background(), [][2]int32{{1, 8}}, nil); err != nil {
		t.Fatalf("apply: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, base+PathFlush,
		strings.NewReader(fmt.Sprintf(`{"protocol":%d}`, Version)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderDeadline, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	_ = json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || er.Code != CodeDeadlineExceeded {
		t.Fatalf("flush with lapsed budget = %d %q, want 504 deadline_exceeded",
			resp.StatusCode, er.Code)
	}
	h, err := c.health(context.Background())
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if h.DeadlineShed < 1 {
		t.Errorf("health deadline_shed = %d, want >= 1", h.DeadlineShed)
	}
	// Only now may the parked mutation rebuild: it stayed queued through
	// the shed and still publishes.
	unpark()
	if _, err := c.Flush(context.Background()); err != nil {
		t.Fatalf("flush after release: %v", err)
	}
}

// TestRetryAfterOn503: protocol 503s advertise a Retry-After the
// caller can act on.
func TestRetryAfterOn503(t *testing.T) {
	g := twoCliques(t)
	cl, _ := startCluster(t, g, 1, 0, testOCA())
	base := cl.addrs[0]

	cl.shards[0].SetDraining(true)
	defer cl.shards[0].SetDraining(false)
	resp, err := http.Post(base+PathApply, "application/json",
		strings.NewReader(fmt.Sprintf(`{"protocol":%d,"batch":{"base":0}}`, Version)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("apply while draining = %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 {
		t.Errorf("draining 503 Retry-After = %q, want integer >= 1", ra)
	}
}

// TestBreakerRecoversViaPoller: the generation poller is the breaker's
// half-open probe vehicle — when the backend comes back, the breaker
// closes without any foreground traffic.
func TestBreakerRecoversViaPoller(t *testing.T) {
	sb := newScriptedBackend(t)
	var broken atomic.Bool
	broken.Store(true)
	sb.script(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			abort(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case PathHealth:
			_ = json.NewEncoder(w).Encode(Health{Protocol: Version})
		default:
			_ = json.NewEncoder(w).Encode(LookupResponse{Generation: 1})
		}
	})
	c := newClient(sb.URL, 0, 1, ClientConfig{
		RequestTimeout: time.Second,
		PollInterval:   5 * time.Millisecond,
	})
	defer c.Close()
	c.startPolling()

	// Trip the breaker with foreground traffic.
	for i := 0; i < 3; i++ {
		_, _ = c.LookupRemote(context.Background(), []int32{0}, false)
	}
	if !c.BreakerOpen() {
		t.Fatalf("breaker not open after failure burst: %+v", c.ResilienceStats())
	}

	// Heal the backend; the poller's next admitted probe must close the
	// breaker (cooldown is 500ms).
	broken.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for c.BreakerOpen() {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after the backend healed: %+v", c.ResilienceStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
