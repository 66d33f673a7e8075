package resilience

import (
	"sync"
	"sync/atomic"
	"time"

	"gowool/internal/chaos"
)

// RetryConfig tunes server-side retries of retry-safe requests.
type RetryConfig struct {
	// MaxRetries bounds the re-runs of one request (attempts =
	// 1 + MaxRetries). Default 2.
	MaxRetries int
	// BaseBackoff is the first retry's backoff ceiling; attempt k
	// draws uniformly from (0, min(MaxBackoff, BaseBackoff·2^k)] —
	// full jitter, so synchronized failures decorrelate. Default 1ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Default 50ms.
	MaxBackoff time.Duration
	// BudgetCap is the retry token bucket's capacity; each retry costs
	// one token and a drained bucket suppresses retries, so retries
	// can never amplify a full outage by more than the bucket.
	// Default 10.
	BudgetCap float64
	// BudgetPerSuccess is the token refill per successful request
	// (capped at BudgetCap): the budget is a fraction of the success
	// rate, the gRPC retry-throttling shape. Default 0.1.
	BudgetPerSuccess float64
}

// Defaulted fills zero fields with the defaults.
func (c RetryConfig) Defaulted() RetryConfig {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 2
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 50 * time.Millisecond
	}
	if c.BudgetCap <= 0 {
		c.BudgetCap = 10
	}
	if c.BudgetPerSuccess <= 0 {
		c.BudgetPerSuccess = 0.1
	}
	return c
}

// Retrier owns one tenant's retry policy: the attempt bound, the
// jittered exponential backoff, and the retry-budget token bucket.
// Safe for concurrent use.
type Retrier struct {
	// full is tokens == BudgetCap, so that OnSuccess on a full bucket —
	// every success while nothing retries — takes no lock. Written under
	// mu.
	full atomic.Bool

	mu     sync.Mutex
	cfg    RetryConfig
	tokens float64
	rng    chaos.RNG
}

// NewRetrier builds a retrier with cfg (zero fields defaulted) and a
// seeded jitter stream; the bucket starts full.
func NewRetrier(cfg RetryConfig, seed uint64) *Retrier {
	cfg = cfg.Defaulted()
	r := &Retrier{cfg: cfg, tokens: cfg.BudgetCap, rng: chaos.NewRNG(seed)}
	r.full.Store(true)
	return r
}

// OnSuccess refills the budget by BudgetPerSuccess, capped. On a full
// bucket it is one load.
func (r *Retrier) OnSuccess() {
	if r.full.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tokens += r.cfg.BudgetPerSuccess
	if r.tokens >= r.cfg.BudgetCap {
		r.tokens = r.cfg.BudgetCap
		r.full.Store(true)
	}
}

// Next decides whether a request that already ran `attempt` times
// (attempt ≥ 1) may be retried, charging the budget and returning the
// jittered backoff to wait before re-enqueueing. ok is false when the
// attempt bound or the budget says stop.
func (r *Retrier) Next(attempt int) (backoff time.Duration, ok bool) {
	if attempt > r.cfg.MaxRetries {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tokens < 1 {
		return 0, false
	}
	r.tokens--
	r.full.Store(false)
	ceil := r.cfg.BaseBackoff << uint(attempt-1)
	if ceil > r.cfg.MaxBackoff || ceil <= 0 {
		ceil = r.cfg.MaxBackoff
	}
	// Full jitter in (0, ceil]: never zero, so a retry always leaves
	// the failing lane a moment to be replaced or reset.
	return time.Duration(r.rng.Next()%uint64(ceil)) + 1, true
}

// Tokens returns the current budget (health snapshots).
func (r *Retrier) Tokens() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tokens
}

// MaxRetries exposes the defaulted attempt bound.
func (r *Retrier) MaxRetries() int { return r.cfg.MaxRetries }
