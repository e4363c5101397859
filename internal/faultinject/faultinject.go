// Package faultinject provides deterministic, seed-driven fault
// injection for the wire protocol: added latency, error rates,
// blackholes and torn responses, targeted per endpoint path. It exists
// for the chaos gate (`make test-chaos`) and for manual staging drills
// (`ocad -fault-plan`, docs/OPERATIONS.md "Failure modes & tuning") —
// never enable it in production.
//
// Determinism: every probabilistic decision draws from one PRNG seeded
// by Plan.Seed, and swapping a plan (SetPlan, or PUT on the control
// endpoint) re-seeds it, so a scripted fault storm makes the same
// decisions on every run. Decisions are drawn in request-arrival
// order; concurrent arrivals race for draw order, so plans that need
// strict per-request determinism use rates of 0 or 1.
package faultinject

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Rule is one fault applied to matching requests. Faults compose in
// field order: latency is added first, then the request may be
// errored, blackholed, or served with a torn response.
type Rule struct {
	// Path selects requests whose URL path contains this substring;
	// empty matches every request. The first matching rule wins.
	Path string `json:"path,omitempty"`
	// LatencyMs is added before the request proceeds; JitterMs adds a
	// uniform random extra in [0, JitterMs).
	LatencyMs int `json:"latency_ms,omitempty"`
	JitterMs  int `json:"jitter_ms,omitempty"`
	// ErrorRate is the probability in [0, 1] of answering 500 without
	// invoking the handler.
	ErrorRate float64 `json:"error_rate,omitempty"`
	// TruncateRate is the probability in [0, 1] of a torn response:
	// the handler runs but its response is aborted mid-body.
	TruncateRate float64 `json:"truncate_rate,omitempty"`
	// Blackhole holds matching requests open without answering until
	// the client gives up — a partition, as seen from one side.
	Blackhole bool `json:"blackhole,omitempty"`
}

// Plan is a fault-injection scenario: a PRNG seed plus an ordered rule
// list. The zero Plan injects nothing.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules,omitempty"`
}

// Validate rejects rates outside [0, 1] and negative latencies.
func (p Plan) Validate() error {
	for i, r := range p.Rules {
		if r.ErrorRate < 0 || r.ErrorRate > 1 || r.TruncateRate < 0 || r.TruncateRate > 1 {
			return fmt.Errorf("faultinject: rule %d: rates must be in [0, 1]", i)
		}
		if r.LatencyMs < 0 || r.JitterMs < 0 {
			return fmt.Errorf("faultinject: rule %d: latencies must be non-negative", i)
		}
	}
	return nil
}

// LoadPlan reads a JSON plan file.
func LoadPlan(path string) (Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, err
	}
	var p Plan
	if err := json.Unmarshal(b, &p); err != nil {
		return Plan{}, fmt.Errorf("faultinject: parsing %s: %w", path, err)
	}
	return p, p.Validate()
}

// Counters reports what an Injector has done, for assertions and the
// control endpoint's GET body.
type Counters struct {
	Matched    uint64 `json:"matched"`
	Delayed    uint64 `json:"delayed"`
	Errored    uint64 `json:"errored"`
	Blackholed uint64 `json:"blackholed"`
	Truncated  uint64 `json:"truncated"`
}

// Injector applies a Plan at the HTTP layer. One Injector wraps one
// server (Handler/Middleware); the plan is swappable at runtime. Safe for concurrent use.
type Injector struct {
	mu   sync.Mutex
	plan Plan
	rng  *rand.Rand

	matched    atomic.Uint64
	delayed    atomic.Uint64
	errored    atomic.Uint64
	blackholed atomic.Uint64
	truncated  atomic.Uint64
}

// New returns an Injector executing plan.
func New(plan Plan) *Injector {
	in := &Injector{}
	in.SetPlan(plan)
	return in
}

// Plan returns the active plan.
func (in *Injector) Plan() Plan {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.plan
}

// SetPlan swaps the active plan and re-seeds the PRNG from it, so
// re-applying a plan replays its decision sequence.
func (in *Injector) SetPlan(p Plan) {
	in.mu.Lock()
	in.plan = p
	in.rng = rand.New(rand.NewSource(p.Seed))
	in.mu.Unlock()
}

// Counters returns a snapshot of the injection counters.
func (in *Injector) Counters() Counters {
	return Counters{
		Matched:    in.matched.Load(),
		Delayed:    in.delayed.Load(),
		Errored:    in.errored.Load(),
		Blackholed: in.blackholed.Load(),
		Truncated:  in.truncated.Load(),
	}
}

// verdict is the pre-drawn fate of one request, so all randomness is
// consumed under the lock in arrival order.
type verdict struct {
	delay     time.Duration
	errored   bool
	blackhole bool
	truncate  bool
}

// decide matches path against the plan and draws the request's fate.
func (in *Injector) decide(path string) (verdict, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.plan.Rules {
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		var v verdict
		if r.LatencyMs > 0 || r.JitterMs > 0 {
			ms := r.LatencyMs
			if r.JitterMs > 0 {
				ms += in.rng.Intn(r.JitterMs)
			}
			v.delay = time.Duration(ms) * time.Millisecond
		}
		if r.ErrorRate > 0 && in.rng.Float64() < r.ErrorRate {
			v.errored = true
		}
		v.blackhole = r.Blackhole
		if r.TruncateRate > 0 && in.rng.Float64() < r.TruncateRate {
			v.truncate = true
		}
		return v, true
	}
	return verdict{}, false
}

// Middleware wraps an http.Handler with the injector's faults.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v, ok := in.decide(r.URL.Path)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		in.matched.Add(1)
		if v.delay > 0 {
			in.delayed.Add(1)
			t := time.NewTimer(v.delay)
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
				return
			}
		}
		if v.blackhole {
			// Hold the request open until the client gives up; abort the
			// connection rather than letting net/http write an empty 200.
			in.blackholed.Add(1)
			<-r.Context().Done()
			panic(http.ErrAbortHandler)
		}
		if v.errored {
			in.errored.Add(1)
			http.Error(w, `{"error":"fault injected"}`, http.StatusInternalServerError)
			return
		}
		if v.truncate {
			in.truncated.Add(1)
			next.ServeHTTP(&truncatingWriter{ResponseWriter: w, remaining: tornResponseBytes}, r)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// tornResponseBytes is how much of a truncated response escapes before
// the connection is torn — enough for a client to start decoding,
// never enough to finish.
const tornResponseBytes = 16

// truncatingWriter lets a few bytes through, then aborts the
// connection mid-response (net/http recognizes ErrAbortHandler and
// drops the connection without logging a panic).
type truncatingWriter struct {
	http.ResponseWriter
	remaining int
}

func (t *truncatingWriter) Write(b []byte) (int, error) {
	if t.remaining <= 0 {
		panic(http.ErrAbortHandler)
	}
	if len(b) > t.remaining {
		_, _ = t.ResponseWriter.Write(b[:t.remaining])
		if f, ok := t.ResponseWriter.(http.Flusher); ok {
			f.Flush()
		}
		t.remaining = 0
		panic(http.ErrAbortHandler)
	}
	t.remaining -= len(b)
	return t.ResponseWriter.Write(b)
}

func (t *truncatingWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }

// ControlPath is the dev-only runtime plan endpoint: GET returns the
// active plan plus counters, PUT (or POST) swaps the plan. cmd/ocad
// registers it outside the injected wrapper so a blackhole-everything
// plan can still be lifted. It is NOT part of the versioned wire
// protocol (docs/PROTOCOL.md) — no compatibility promises.
const ControlPath = "/debug/fault-plan"

// Handler wraps next with the faults plus the ControlPath endpoint.
func (in *Injector) Handler(next http.Handler) http.Handler {
	faulty := in.Middleware(next)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != ControlPath {
			faulty.ServeHTTP(w, r)
			return
		}
		switch r.Method {
		case http.MethodGet:
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(struct {
				Plan     Plan     `json:"plan"`
				Injected Counters `json:"injected"`
			}{in.Plan(), in.Counters()})
		case http.MethodPut, http.MethodPost:
			var p Plan
			if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&p); err != nil {
				http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
				return
			}
			if err := p.Validate(); err != nil {
				http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
				return
			}
			in.SetPlan(p)
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte(`{"ok":true}` + "\n"))
		default:
			http.Error(w, `{"error":"GET or PUT"}`, http.StatusMethodNotAllowed)
		}
	})
}
