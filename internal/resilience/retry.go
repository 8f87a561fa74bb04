package resilience

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// The retry budget's bucket: it holds at most budgetMax tokens and earns
// budgetPerSuccess per success, so steady-state retries are capped near 10%
// of successful traffic.
const (
	budgetMax        = 10
	budgetPerSuccess = 0.1
)

// RetryBudget is a token bucket bounding the retry amplification a degraded
// dependency can cause: each retry spends one token, each success earns a
// fraction of one back. When everything is failing the bucket drains and
// retries stop — callers fail fast instead of multiplying load onto a
// struggling peer (retry-storm protection). Construct with NewRetryBudget.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
}

// NewRetryBudget returns a full bucket.
func NewRetryBudget() *RetryBudget {
	return &RetryBudget{tokens: budgetMax}
}

// Spend takes one token for a retry, reporting whether the retry is allowed.
func (r *RetryBudget) Spend() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tokens < 1 {
		return false
	}
	r.tokens--
	return true
}

// Earn credits one successful call.
func (r *RetryBudget) Earn() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tokens = min(r.tokens+budgetPerSuccess, budgetMax)
}

// Retry backoff: 10 ms before the first retry, doubling per attempt up to 1 s.
const (
	backoffBase = 10 * time.Millisecond
	backoffMax  = time.Second
)

// Backoff returns the wait before retry attempt (0-based): an exponentially
// grown target with "equal jitter" — half deterministic, half uniformly
// random — so simultaneous failers decorrelate instead of retrying in
// lock-step.
func Backoff(attempt int) time.Duration {
	d := backoffBase
	for i := 0; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	d = min(d, backoffMax)
	return d/2 + time.Duration(rand.Float64()*float64(d/2))
}

// Sleep waits for d or until ctx is done, returning ctx's error in the
// latter case. Retry loops use it so a caller's deadline cuts the backoff
// short.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
