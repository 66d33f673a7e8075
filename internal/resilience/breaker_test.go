package resilience

import (
	"sync"
	"testing"
	"time"
)

// fakeClock drives a breaker deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testBreaker(clk *fakeClock) *Breaker {
	return NewBreaker(BreakerConfig{
		Window:         time.Second,
		Buckets:        4,
		MinSamples:     10,
		FailureRate:    0.5,
		Cooldown:       100 * time.Millisecond,
		HalfOpenProbes: 2,
	}, clk.now)
}

// TestBreakerTripsOnFailureRate: below MinSamples nothing trips; at
// the threshold with a crossing rate the breaker opens and sheds.
func TestBreakerTripsOnFailureRate(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	// 9 failures: still under MinSamples, stays closed.
	for i := 0; i < 9; i++ {
		b.Record(false)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after 9 failures = %v, want closed (MinSamples=10)", b.State())
	}
	b.Record(false) // 10th sample, rate 1.0 ≥ 0.5 → open
	if b.State() != BreakerOpen {
		t.Fatalf("state after 10 failures = %v, want open", b.State())
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	h := b.Health()
	if h.Opened != 1 || h.State != "open" {
		t.Fatalf("health = %+v, want opened=1 state=open", h)
	}
}

// TestBreakerStaysClosedUnderRate: many samples at a sub-threshold
// failure rate never trip; the same volume above the threshold does.
func TestBreakerStaysClosedUnderRate(t *testing.T) {
	clk := newFakeClock()
	under := testBreaker(clk)
	for i := 0; i < 40; i++ {
		under.Record(i%4 != 0) // 25% failures
	}
	if under.State() != BreakerClosed {
		t.Fatalf("state at 25%% failure rate = %v, want closed", under.State())
	}
	over := testBreaker(clk)
	for i := 0; i < 40; i++ {
		over.Record(i%4 == 0) // 75% failures
	}
	if over.State() != BreakerOpen {
		t.Fatalf("state at 75%% failure rate = %v, want open", over.State())
	}
}

// TestBreakerHalfOpenRecovery: cooldown moves open → half-open on the
// next Allow; HalfOpenProbes successes close it and reset the window.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 10; i++ {
		b.Record(false)
	}
	if b.State() != BreakerOpen {
		t.Fatal("setup: breaker should be open")
	}
	clk.advance(150 * time.Millisecond) // past cooldown
	ok, probe := b.Allow()
	if !ok || !probe {
		t.Fatalf("post-cooldown Allow = (%v, %v), want (true, true)", ok, probe)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// Second concurrent probe admitted, third rejected (bound = 2).
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("second probe Allow = (%v, %v), want (true, true)", ok, probe)
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("half-open admitted beyond the probe bound")
	}
	b.ProbeDone(true)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after 1/2 probe successes = %v, want half-open", b.State())
	}
	b.ProbeDone(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state after 2/2 probe successes = %v, want closed", b.State())
	}
	h := b.Health()
	if h.Opened != 1 || h.HalfOpened != 1 || h.Closed != 1 {
		t.Fatalf("transitions = %+v, want opened=1 halfOpened=1 closed=1", h)
	}
	// The recovery reset the window: old failures must not re-trip on
	// the next recorded failure.
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatal("recovered breaker re-tripped on a single failure (window not reset)")
	}
}

// TestBreakerHalfOpenFailureReopens: a failed probe re-opens and the
// cooldown restarts.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 10; i++ {
		b.Record(false)
	}
	clk.advance(150 * time.Millisecond)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatal("setup: probe not admitted")
	}
	b.ProbeDone(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("re-opened breaker admitted a request before the new cooldown")
	}
	if h := b.Health(); h.Opened != 2 {
		t.Fatalf("opened = %d, want 2", h.Opened)
	}
}

// TestBreakerWindowAges: failures older than the window age out, so a
// burst followed by quiet does not trip later.
func TestBreakerWindowAges(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 9; i++ {
		b.Record(false)
	}
	// Let the whole window expire, then record enough mixed outcomes:
	// the old 9 failures must be gone.
	clk.advance(2 * time.Second)
	for i := 0; i < 12; i++ {
		b.Record(true)
	}
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed (old failures should have aged out)", b.State())
	}
	h := b.Health()
	if h.WindowFailures != 1 || h.WindowSuccesses != 12 {
		t.Fatalf("window = %d/%d (f/s), want 1/12", h.WindowFailures, h.WindowSuccesses)
	}
}

// TestBreakerRecordAtOlderReading: a caller's reading older than the
// current bucket's start — two lanes read the clock, then race for the
// lock — is counted in the current bucket, and the ring does not move
// back to it.
func TestBreakerRecordAtOlderReading(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk) // 4 buckets of 250ms
	early := clk.now().Add(100 * time.Millisecond)
	clk.advance(300 * time.Millisecond)
	b.Record(true) // rolls to the second bucket
	cur, start := b.cur, b.curStart
	if cur != 1 || !start.Equal(early.Add(150*time.Millisecond)) {
		t.Fatalf("setup: cur=%d curStart=%v, want the second bucket", cur, start)
	}
	b.RecordAt(false, early)
	if b.cur != cur || !b.curStart.Equal(start) {
		t.Fatalf("an older reading moved the ring: cur %d → %d, curStart %v → %v", cur, b.cur, start, b.curStart)
	}
	if bk := b.buckets[cur]; bk.success != 1 || bk.failure != 1 {
		t.Fatalf("current bucket = %+v, want the older failure counted with the success", bk)
	}
	if h := b.Health(); h.WindowSuccesses != 1 || h.WindowFailures != 1 {
		t.Fatalf("window = %d/%d (s/f), want 1/1", h.WindowSuccesses, h.WindowFailures)
	}
}

// TestBreakerRecordAtTripsAtReading: a failure that trips with a
// caller's reading opens the breaker at that reading, and Allow runs
// the cooldown from it on the breaker's own clock.
func TestBreakerRecordAtTripsAtReading(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk) // 100ms cooldown
	clk.advance(200 * time.Millisecond)
	at := clk.now().Add(-50 * time.Millisecond)
	for i := 0; i < 10; i++ {
		b.RecordAt(false, at)
	}
	if b.State() != BreakerOpen || !b.openedAt.Equal(at) {
		t.Fatalf("state %v openedAt %v, want open at the caller's reading %v", b.State(), b.openedAt, at)
	}
	clk.advance(49 * time.Millisecond) // 99ms after the reading
	if ok, _ := b.Allow(); ok {
		t.Fatal("admitted 99ms after the tripping reading, inside the 100ms cooldown")
	}
	clk.advance(2 * time.Millisecond) // 101ms
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("Allow 101ms after the tripping reading = (%v, %v), want a probe", ok, probe)
	}
}

// TestBreakerRecordMatchesRecordAt: Record and RecordAt given the same
// reading leave identical Health, step by step, through window aging, a
// trip and the cooldown.
func TestBreakerRecordMatchesRecordAt(t *testing.T) {
	clk := newFakeClock()
	own, given := testBreaker(clk), testBreaker(clk)
	for i := 0; i < 60; i++ {
		success := i%3 != 0 && i < 40 // a trip after 40
		own.Record(success)
		given.RecordAt(success, clk.now())
		if i%7 == 0 {
			own.Allow()
			given.Allow()
		}
		if ho, hg := own.Health(), given.Health(); ho != hg {
			t.Fatalf("step %d: Record left %+v, RecordAt %+v", i, ho, hg)
		}
		clk.advance(time.Duration(i%5) * 30 * time.Millisecond)
	}
	if own.Health().Opened == 0 {
		t.Fatal("the sequence never tripped the breaker")
	}
}
