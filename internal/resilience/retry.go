package resilience

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// RetryConfig tunes a Retryer. Zero values take the defaults.
type RetryConfig struct {
	// MaxAttempts is the total attempt count including the first
	// (default 3; 1 disables retries).
	MaxAttempts int
	// BaseDelay is the backoff ceiling before the first retry
	// (default 10ms); it doubles per retry up to MaxDelay (default
	// 250ms). Each actual delay is full-jittered: uniform in
	// (0, ceiling], so synchronized callers spread out instead of
	// retrying in lockstep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 10 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 250 * time.Millisecond
	}
	return c
}

// Budget is a token-bucket retry budget shared by all requests to one
// backend: each first attempt deposits a fraction of a token, each
// retry withdraws a whole one, so during an outage retries are bounded
// to roughly Ratio of the offered load instead of multiplying it.
// Safe for concurrent use.
type Budget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	ratio  float64

	exhausted atomic.Uint64
}

// NewBudget returns a budget allowing roughly ratio retries per
// request, with burst capacity max (defaults: max 10, ratio 0.1).
// The bucket starts full so startup blips can retry immediately.
func NewBudget(max, ratio float64) *Budget {
	if max <= 0 {
		max = 10
	}
	if ratio <= 0 {
		ratio = 0.1
	}
	return &Budget{tokens: max, max: max, ratio: ratio}
}

// Deposit credits one first attempt's worth of retry allowance.
func (b *Budget) Deposit() {
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.max {
		b.tokens = b.max
	}
	b.mu.Unlock()
}

// Withdraw takes one retry token, reporting false (and counting the
// exhaustion) when the bucket is empty.
func (b *Budget) Withdraw() bool {
	b.mu.Lock()
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	b.mu.Unlock()
	if !ok {
		b.exhausted.Add(1)
	}
	return ok
}

// Exhausted is the number of retries the budget refused.
func (b *Budget) Exhausted() uint64 { return b.exhausted.Load() }

// Retryer runs operations with jittered-exponential-backoff retries,
// bounded by an optional shared Budget. It must only wrap idempotent
// operations — reads, health probes, snapshot fetches — never writes:
// a retried write that already landed is a duplicate, and this layer
// cannot know. Safe for concurrent use.
type Retryer struct {
	cfg    RetryConfig
	budget *Budget

	mu  sync.Mutex
	rng *rand.Rand

	retries atomic.Uint64
}

// NewRetryer returns a Retryer; budget may be nil (unbudgeted).
func NewRetryer(cfg RetryConfig, budget *Budget) *Retryer {
	return &Retryer{
		cfg:    cfg.withDefaults(),
		budget: budget,
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Do runs op, retrying while retryable(err) is true, the budget and
// attempt cap allow, and ctx is alive. The returned error is the last
// attempt's. Backoff never sleeps past ctx's deadline, and the decision
// is made on the delay actually drawn, not on its ceiling: a jittered
// delay that fits inside the remaining deadline sleeps and retries; one
// that does not returns the last error immediately, without sleeping,
// instead of burning the caller's deadline. A short deadline therefore
// may or may not see a retry, depending on the draw.
func (r *Retryer) Do(ctx context.Context, retryable func(error) bool, op func() error) error {
	delay := r.cfg.BaseDelay
	for attempt := 1; ; attempt++ {
		if r.budget != nil && attempt == 1 {
			r.budget.Deposit()
		}
		err := op()
		if err == nil || attempt >= r.cfg.MaxAttempts || !retryable(err) {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		if r.budget != nil && !r.budget.Withdraw() {
			return err
		}
		d := r.jitter(delay)
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
			return err
		}
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return err
		}
		r.retries.Add(1)
		if delay *= 2; delay > r.cfg.MaxDelay {
			delay = r.cfg.MaxDelay
		}
	}
}

// jitter draws a full-jittered delay: uniform in (0, ceiling].
func (r *Retryer) jitter(ceiling time.Duration) time.Duration {
	r.mu.Lock()
	d := time.Duration(r.rng.Int63n(int64(ceiling))) + 1
	r.mu.Unlock()
	return d
}

// Retries is the number of retry attempts actually launched.
func (r *Retryer) Retries() uint64 { return r.retries.Load() }
