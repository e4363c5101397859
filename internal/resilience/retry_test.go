package resilience

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errTransient = errors.New("transient")

func always(error) bool { return false }
func transientOnly(err error) bool {
	return errors.Is(err, errTransient)
}

// TestRetrySucceedsAfterTransientFailures: the op runs up to
// MaxAttempts times and the retry counter reflects launched retries.
func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	r := NewRetryer(RetryConfig{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond}, nil)
	calls := 0
	err := r.Do(context.Background(), transientOnly, func() error {
		calls++
		if calls < 3 {
			return errTransient
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want nil after 3", err, calls)
	}
	if r.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", r.Retries())
	}
}

// TestRetryStopsAtAttemptCap: a persistently failing op returns its
// last error after exactly MaxAttempts tries.
func TestRetryStopsAtAttemptCap(t *testing.T) {
	r := NewRetryer(RetryConfig{MaxAttempts: 4, BaseDelay: time.Microsecond}, nil)
	calls := 0
	err := r.Do(context.Background(), transientOnly, func() error { calls++; return errTransient })
	if !errors.Is(err, errTransient) || calls != 4 {
		t.Fatalf("Do = %v after %d calls, want transient after 4", err, calls)
	}
}

// TestRetryNonRetryableRunsOnce: errors the classifier rejects never
// retry (the "never apply" contract rides on this).
func TestRetryNonRetryableRunsOnce(t *testing.T) {
	r := NewRetryer(RetryConfig{MaxAttempts: 5, BaseDelay: time.Microsecond}, nil)
	calls := 0
	sticky := errors.New("permanent")
	err := r.Do(context.Background(), transientOnly, func() error { calls++; return sticky })
	if !errors.Is(err, sticky) || calls != 1 {
		t.Fatalf("Do = %v after %d calls, want permanent after 1", err, calls)
	}
	calls = 0
	if err := r.Do(context.Background(), always, func() error { calls++; return errTransient }); !errors.Is(err, errTransient) || calls != 1 {
		t.Fatalf("never-retryable: %v after %d calls, want 1 call", err, calls)
	}
	if r.Retries() != 0 {
		t.Fatalf("retries = %d, want 0", r.Retries())
	}
}

// TestRetryBudgetExhaustion: a drained token bucket stops retries
// across callers and counts every refusal.
func TestRetryBudgetExhaustion(t *testing.T) {
	// max 2 tokens, tiny deposit ratio: two retries spend the bucket.
	budget := NewBudget(2, 0.01)
	r := NewRetryer(RetryConfig{MaxAttempts: 2, BaseDelay: time.Microsecond}, budget)
	fail := func() error { return errTransient }
	for i := 0; i < 2; i++ {
		if err := r.Do(context.Background(), transientOnly, fail); !errors.Is(err, errTransient) {
			t.Fatalf("Do %d = %v", i, err)
		}
	}
	if r.Retries() != 2 {
		t.Fatalf("retries with budget = %d, want 2", r.Retries())
	}
	// Bucket empty (2 - 2 + 2*0.01 < 1): further retries are refused.
	if err := r.Do(context.Background(), transientOnly, fail); !errors.Is(err, errTransient) {
		t.Fatalf("Do = %v", err)
	}
	if r.Retries() != 2 {
		t.Fatalf("retries after exhaustion = %d, want still 2", r.Retries())
	}
	if budget.Exhausted() != 1 {
		t.Fatalf("exhausted = %d, want 1", budget.Exhausted())
	}
	// Deposits refill: ~100 first attempts buy one more retry.
	for i := 0; i < 100; i++ {
		budget.Deposit()
	}
	if err := r.Do(context.Background(), transientOnly, fail); !errors.Is(err, errTransient) {
		t.Fatalf("Do = %v", err)
	}
	if r.Retries() != 3 {
		t.Fatalf("retries after refill = %d, want 3", r.Retries())
	}
}

// TestRetryRespectsContext: an expired context suppresses further
// attempts, and backoff never sleeps past the deadline.
func TestRetryRespectsContext(t *testing.T) {
	r := NewRetryer(RetryConfig{MaxAttempts: 10, BaseDelay: 50 * time.Millisecond, MaxDelay: 50 * time.Millisecond}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := r.Do(ctx, transientOnly, func() error {
		calls++
		cancel()
		return errTransient
	})
	if !errors.Is(err, errTransient) || calls != 1 {
		t.Fatalf("canceled ctx: %v after %d calls, want 1 call", err, calls)
	}

	// The deadline contract, on both sides of a known draw: re-seeding a
	// retryer's jitter source fixes its next delay (the same seed replayed
	// beside it says what that delay is).
	nextDraw := func(r *Retryer) time.Duration {
		const seed = 1
		r.rng = rand.New(rand.NewSource(seed))
		return time.Duration(rand.New(rand.NewSource(seed)).Int63n(int64(r.cfg.BaseDelay))) + 1
	}

	// A deadline the drawn delay does not fit inside returns the last
	// error immediately, without sleeping into it: one call. (Seconds-long
	// delays make "did not sleep" unmistakable.)
	slow := NewRetryer(RetryConfig{MaxAttempts: 10, BaseDelay: 10 * time.Second, MaxDelay: 10 * time.Second}, nil)
	d := nextDraw(slow)
	dctx, dcancel := context.WithTimeout(context.Background(), d/2)
	defer dcancel()
	start := time.Now()
	calls = 0
	err = slow.Do(dctx, transientOnly, func() error { calls++; return errTransient })
	if !errors.Is(err, errTransient) || calls != 1 {
		t.Fatalf("deadline %v < delay %v: %v after %d calls, want 1 call", d/2, d, err, calls)
	}
	if elapsed := time.Since(start); elapsed >= d/2 {
		t.Fatalf("Do slept %v into a %v deadline", elapsed, d/2)
	}

	// A deadline the drawn delay fits inside does retry: two calls.
	d = nextDraw(r)
	fctx, fcancel := context.WithTimeout(context.Background(), d+10*time.Second)
	defer fcancel()
	calls = 0
	err = r.Do(fctx, transientOnly, func() error {
		if calls++; calls == 1 {
			return errTransient
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("deadline > delay %v: %v after %d calls, want success on call 2", d, err, calls)
	}
}

// TestJitterBounds: every drawn delay is in (0, ceiling].
func TestJitterBounds(t *testing.T) {
	r := NewRetryer(RetryConfig{}, nil)
	const ceiling = 20 * time.Millisecond
	for i := 0; i < 1000; i++ {
		if d := r.jitter(ceiling); d <= 0 || d > ceiling {
			t.Fatalf("jitter(%v) = %v out of (0, %v]", ceiling, d, ceiling)
		}
	}
}

// TestBudgetConcurrent hammers one budget from many goroutines (-race)
// and checks conservation: withdrawals never exceed deposits + burst.
func TestBudgetConcurrent(t *testing.T) {
	budget := NewBudget(10, 0.5)
	var withdrawn, deposits atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				budget.Deposit()
				deposits.Add(1)
				if budget.Withdraw() {
					withdrawn.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	maxAllowed := uint64(10 + float64(deposits.Load())*0.5)
	if w := withdrawn.Load(); w > maxAllowed {
		t.Fatalf("withdrew %d tokens from at most %d", w, maxAllowed)
	}
	if withdrawn.Load()+budget.Exhausted() != deposits.Load() {
		t.Fatalf("withdrawn %d + exhausted %d != attempts %d",
			withdrawn.Load(), budget.Exhausted(), deposits.Load())
	}
}
