package resilience

import (
	"testing"
	"time"
)

// TestBreakerShardWindow: a shard's successes count in the window while
// they are inside it and age out with the ring, Health sums every shard
// with the breaker's own ring, and a failure's evaluation weighs the
// shards' successes.
func TestBreakerShardWindow(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk) // 4 buckets of 250ms, MinSamples 10
	a, c := b.NewShard(), b.NewShard()
	for i := 0; i < 6; i++ {
		if !a.Success(clk.now()) {
			t.Fatal("Success on a closed breaker reported false")
		}
	}
	clk.advance(300 * time.Millisecond)
	for i := 0; i < 4; i++ {
		c.Success(clk.now())
	}
	b.Record(true)
	if h := b.Health(); h.WindowSuccesses != 11 || h.WindowFailures != 0 {
		t.Fatalf("window = %d/%d (s/f), want 11/0: six and four from two shards, one recorded", h.WindowSuccesses, h.WindowFailures)
	}
	// Ten failures against eleven successes: 10/21 < 0.5, no trip.
	for i := 0; i < 10; i++ {
		b.Record(false)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed: the shards' successes keep the rate under the threshold", b.State())
	}
	// 800ms later shard a's epoch 0 has aged out (the window covers
	// epochs 1-4); shard c's epoch 1 and the ring's are still in.
	clk.advance(800 * time.Millisecond)
	if h := b.Health(); h.WindowSuccesses != 5 || h.WindowFailures != 10 {
		t.Fatalf("window = %d/%d (s/f), want 5/10 with shard a aged out", h.WindowSuccesses, h.WindowFailures)
	}
	clk.advance(250 * time.Millisecond)
	if h := b.Health(); h.WindowSuccesses != 0 || h.WindowFailures != 0 {
		t.Fatalf("window = %d/%d (s/f), want empty", h.WindowSuccesses, h.WindowFailures)
	}
}

// TestBreakerShardTripAndReset: a tripped breaker refuses shard counts,
// so the caller records through RecordAt; after half-open → closed the
// shards' earlier counts are out of the window, those of the reset's
// own epoch included, and counts after the reset are in.
func TestBreakerShardTripAndReset(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk) // 100ms cooldown, 2 probes
	sh := b.NewShard()
	for i := 0; i < 5; i++ {
		sh.Success(clk.now())
	}
	for i := 0; i < 10; i++ {
		b.Record(false)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open at 10/15 failures", b.State())
	}
	if sh.Success(clk.now()) {
		t.Fatal("Success counted on an open breaker")
	}
	clk.advance(120 * time.Millisecond) // still epoch 0: the shard's five are in it
	for i := 0; i < 2; i++ {
		if ok, probe := b.Allow(); !ok || !probe {
			t.Fatalf("probe %d not admitted", i)
		}
	}
	b.ProbeDone(true)
	b.ProbeDone(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed after two probe successes", b.State())
	}
	if h := b.Health(); h.WindowSuccesses != 0 || h.WindowFailures != 0 {
		t.Fatalf("window right after the reset = %d/%d (s/f), want empty: the shard's five predate it", h.WindowSuccesses, h.WindowFailures)
	}
	for i := 0; i < 3; i++ {
		if !sh.Success(clk.now()) {
			t.Fatal("Success refused after the reset closed the breaker")
		}
	}
	if h := b.Health(); h.WindowSuccesses != 3 {
		t.Fatalf("window successes = %d, want the 3 after the reset, in the reset's epoch", h.WindowSuccesses)
	}
	clk.advance(250 * time.Millisecond)
	sh.Success(clk.now())
	if h := b.Health(); h.WindowSuccesses != 4 {
		t.Fatalf("window successes = %d, want 4 one epoch later", h.WindowSuccesses)
	}
}

// TestBreakerShardPhase: after a jump of Buckets epochs or more the ring
// keeps the phase it was built with, so a shard's epoch tag and the
// ring's bucket agree on what the window holds.
func TestBreakerShardPhase(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk) // 250ms buckets
	sh := b.NewShard()
	clk.advance(5*time.Second + 100*time.Millisecond) // epoch 20, 100ms in
	b.Record(true)
	if want := clk.now().Add(-100 * time.Millisecond); !b.curStart.Equal(want) || b.curEpoch != 20 {
		t.Fatalf("after the jump: curStart %v epoch %d, want %v and 20", b.curStart, b.curEpoch, want)
	}
	sh.Success(clk.now())
	clk.advance(200 * time.Millisecond) // epoch 21
	sh.Success(clk.now())
	if h := b.Health(); h.WindowSuccesses != 3 {
		t.Fatalf("window successes = %d, want 3", h.WindowSuccesses)
	}
	clk.advance(750 * time.Millisecond) // epoch 24: epoch 20 out, 21 in
	if h := b.Health(); h.WindowSuccesses != 1 {
		t.Fatalf("window successes = %d, want the epoch-21 one", h.WindowSuccesses)
	}
}

// TestEstimatorShards: one shard reproduces the unsharded EWMA bit for
// bit; two give the sample-weighted mean of their EWMAs; MinSamples
// counts samples across shards.
func TestEstimatorShards(t *testing.T) {
	cfg := EstimatorConfig{Alpha: 0.3, MinSamples: 6}
	plain, sharded := NewEstimator(cfg), NewEstimator(cfg)
	one := sharded.NewShard()
	for i := 0; i < 50; i++ {
		d := time.Duration(1000 + (i*7919)%3001)
		plain.Observe("fib", d)
		one.Observe("fib", d)
		one.Observe("other", 5*d) // a second class through the same shard
	}
	pe, pok := plain.Estimate("fib")
	se, sok := sharded.Estimate("fib")
	if !pok || !sok || pe != se {
		t.Fatalf("one shard: estimate %v (%v), unsharded %v (%v), want equal", se, sok, pe, pok)
	}

	e := NewEstimator(cfg)
	a, b := e.NewShard(), e.NewShard()
	for i := 0; i < 3; i++ {
		a.Observe("fib", 1000)
	}
	for i := 0; i < 2; i++ {
		b.Observe("fib", 4000)
	}
	if _, ok := e.Estimate("fib"); ok {
		t.Fatal("5 samples across two shards trusted under MinSamples 6")
	}
	b.Observe("fib", 4000) // a: 3 × 1000, b: 3 × 4000
	if est, ok := e.Estimate("fib"); !ok || est != 2500 {
		t.Fatalf("two shards: estimate %v (%v), want the weighted mean 2500 trusted at 6 samples in total", est, ok)
	}
	e.Observe("fib", 1000) // the locked path is a writer of its own
	a.Observe("fib", 1000)
	// a: 4 × 1000, b: 3 × 4000, Observe: 1 × 1000 → (4000+12000+1000)/8.
	if est, _ := e.Estimate("fib"); est != 2125 {
		t.Fatalf("estimate %v, want 2125", est)
	}
}

// TestRetrierOnSuccessFull: OnSuccess refills what Next took and is a
// no-op on a full bucket.
func TestRetrierOnSuccessFull(t *testing.T) {
	r := NewRetrier(RetryConfig{BudgetCap: 2, BudgetPerSuccess: 0.5}, 1)
	r.OnSuccess()
	if got := r.Tokens(); got != 2 || !r.full.Load() {
		t.Fatalf("full bucket after OnSuccess: %v tokens (full=%v), want 2", got, r.full.Load())
	}
	if _, ok := r.Next(1); !ok {
		t.Fatal("Next refused on a full bucket")
	}
	if got := r.Tokens(); got != 1 || r.full.Load() {
		t.Fatalf("after Next: %v tokens (full=%v), want 1 and not full", got, r.full.Load())
	}
	r.OnSuccess()
	if got := r.Tokens(); got != 1.5 || r.full.Load() {
		t.Fatalf("after one refill: %v tokens (full=%v), want 1.5", got, r.full.Load())
	}
	r.OnSuccess()
	r.OnSuccess()
	if got := r.Tokens(); got != 2 || !r.full.Load() {
		t.Fatalf("after the refills: %v tokens (full=%v), want capped at 2 and full", got, r.full.Load())
	}
}
