package resilience

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's state machine position.
type BreakerState uint8

const (
	// BreakerClosed admits everything; outcomes feed the failure-rate
	// window.
	BreakerClosed BreakerState = iota
	// BreakerOpen sheds everything until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a bounded number of probe requests whose
	// outcomes decide between re-opening and closing.
	BreakerHalfOpen
)

// String returns the stable state name (health snapshots, docs).
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes one circuit breaker. Zero fields take the
// documented defaults (applied by NewBreaker).
type BreakerConfig struct {
	// Window is the sliding window over which the failure rate is
	// measured. Default 5s.
	Window time.Duration
	// Buckets is the window's ring granularity (expired outcomes age
	// out one bucket at a time). Default 8.
	Buckets int
	// MinSamples is the minimum number of windowed outcomes before the
	// failure rate can trip the breaker (a single early failure must
	// not open a fresh tenant). Default 20.
	MinSamples int
	// FailureRate opens the breaker when windowed failures/total
	// reaches it. Default 0.5.
	FailureRate float64
	// Cooldown is how long an open breaker sheds before moving to
	// half-open on the next admission attempt. Default 1s.
	Cooldown time.Duration
	// HalfOpenProbes is both the half-open admission bound and the
	// number of consecutive probe successes required to close.
	// Default 3.
	HalfOpenProbes int
}

// Defaulted fills zero fields with the defaults.
func (c BreakerConfig) Defaulted() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 5 * time.Second
	}
	if c.Buckets <= 0 {
		c.Buckets = 8
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 20
	}
	if c.FailureRate <= 0 {
		c.FailureRate = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 3
	}
	return c
}

// BreakerHealth is a point-in-time breaker snapshot (Server.Health).
type BreakerHealth struct {
	// State is the current state name: closed, open or half-open.
	State string
	// WindowSuccesses / WindowFailures are the outcomes currently in
	// the sliding window.
	WindowSuccesses int64
	WindowFailures  int64
	// Opened / HalfOpened / Closed count state transitions since the
	// breaker was built (Closed counts only half-open→closed
	// recoveries, not the initial state).
	Opened     int64
	HalfOpened int64
	Closed     int64
}

// Breaker is one tenant's circuit breaker: a sliding-window
// failure-rate trip in front of the classic closed → open → half-open
// machine. All methods are safe for concurrent use.
type Breaker struct {
	mu  sync.Mutex
	cfg BreakerConfig
	// now is the breaker's clock. Every method reads it but RecordAt,
	// whose caller passes a reading of it instead.
	now func() time.Time

	state    BreakerState
	openedAt time.Time

	// The window ring: bucket 0..len-1, cur advances every
	// Window/Buckets as outcomes arrive.
	buckets  []breakerBucket
	cur      int
	curStart time.Time

	// Half-open probe accounting.
	probesInFlight int
	probeSuccesses int

	// Transition counters (BreakerHealth).
	opened     int64
	halfOpened int64
	closed     int64
}

type breakerBucket struct {
	success int64
	failure int64
}

// NewBreaker builds a breaker with cfg (zero fields defaulted). now is
// the clock; nil means time.Now — tests inject a fake to drive the
// window and cooldown deterministically. A caller of RecordAt must read
// the same clock.
func NewBreaker(cfg BreakerConfig, now func() time.Time) *Breaker {
	cfg = cfg.Defaulted()
	if now == nil {
		now = time.Now
	}
	b := &Breaker{
		cfg:     cfg,
		now:     now,
		buckets: make([]breakerBucket, cfg.Buckets),
	}
	b.curStart = now()
	return b
}

// Allow decides one admission. ok reports whether the request may
// proceed; probe is true when the breaker is half-open and this
// request is one of its probes — the caller must report the probe's
// outcome with ProbeDone (Record for non-probes).
func (b *Breaker) Allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false, false
		}
		// Cooldown over: move to half-open and admit this request as
		// the first probe.
		b.state = BreakerHalfOpen
		b.halfOpened++
		b.probesInFlight = 1
		b.probeSuccesses = 0
		return true, true
	default: // BreakerHalfOpen
		if b.probesInFlight >= b.cfg.HalfOpenProbes {
			return false, false
		}
		b.probesInFlight++
		return true, true
	}
}

// Record feeds a non-probe outcome into the window and, when closed,
// evaluates the trip condition. Sheds and cancellations must not be
// recorded — only real successes and failure-class outcomes.
func (b *Breaker) Record(success bool) { b.RecordAt(success, b.now()) }

// RecordAt is Record at the caller's reading of the breaker's clock, for
// a caller that already read it for the outcome (the serving layer's
// end-of-attempt stamp). A reading older than the current bucket's start
// — two callers that read the clock and then raced for the lock — counts
// in the current bucket. A trip opens the breaker at now, and Allow
// measures the cooldown from it with the breaker's own clock, so with
// the default clock now must carry time.Now's monotonic reading (as
// time.Now().Add(d) does, and a time.Unix value does not).
func (b *Breaker) RecordAt(success bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.record(success, now)
	if b.state == BreakerClosed && !success {
		b.evaluate(now)
	}
}

// ProbeDone reports the outcome of a half-open probe admitted by
// Allow. A failure re-opens immediately; HalfOpenProbes consecutive
// successes close the breaker and reset the window.
func (b *Breaker) ProbeDone(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probesInFlight > 0 {
		b.probesInFlight--
	}
	now := b.now()
	b.record(success, now)
	if b.state != BreakerHalfOpen {
		// A probe outcome landing after the state already moved (a
		// concurrent probe re-opened, or we closed) only feeds the
		// window.
		return
	}
	if !success {
		b.trip(now)
		return
	}
	b.probeSuccesses++
	if b.probeSuccesses >= b.cfg.HalfOpenProbes {
		b.state = BreakerClosed
		b.closed++
		b.resetWindow()
	}
}

// ProbeSkipped releases a half-open probe slot whose request finished
// without a health signal — cancelled by its own caller or shed — so
// the slot frees for the next probe and no outcome is recorded.
func (b *Breaker) ProbeSkipped() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probesInFlight > 0 {
		b.probesInFlight--
	}
}

// State returns the current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Health snapshots the breaker.
func (b *Breaker) Health() BreakerHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.roll(b.now())
	var s, f int64
	for _, bk := range b.buckets {
		s += bk.success
		f += bk.failure
	}
	return BreakerHealth{
		State:           b.state.String(),
		WindowSuccesses: s,
		WindowFailures:  f,
		Opened:          b.opened,
		HalfOpened:      b.halfOpened,
		Closed:          b.closed,
	}
}

// record rolls the window to now and counts one outcome (mu held).
func (b *Breaker) record(success bool, now time.Time) {
	b.roll(now)
	if success {
		b.buckets[b.cur].success++
	} else {
		b.buckets[b.cur].failure++
	}
}

// evaluate trips the breaker at now when the windowed failure rate
// crosses the threshold with enough samples (mu held, state closed).
func (b *Breaker) evaluate(now time.Time) {
	var s, f int64
	for _, bk := range b.buckets {
		s += bk.success
		f += bk.failure
	}
	total := s + f
	if total < int64(b.cfg.MinSamples) {
		return
	}
	if float64(f) >= b.cfg.FailureRate*float64(total) {
		b.trip(now)
	}
}

// trip opens the breaker at now (mu held).
func (b *Breaker) trip(now time.Time) {
	b.state = BreakerOpen
	b.openedAt = now
	b.opened++
	b.probesInFlight = 0
	b.probeSuccesses = 0
}

// roll ages the window ring forward to now (mu held); a now before
// curStart leaves the ring where it is.
func (b *Breaker) roll(now time.Time) {
	bucketLen := b.cfg.Window / time.Duration(len(b.buckets))
	elapsed := now.Sub(b.curStart)
	if elapsed < bucketLen {
		return
	}
	steps := int(elapsed / bucketLen)
	if steps >= len(b.buckets) {
		b.resetWindow()
		b.curStart = now
		return
	}
	for i := 0; i < steps; i++ {
		b.cur = (b.cur + 1) % len(b.buckets)
		b.buckets[b.cur] = breakerBucket{}
	}
	b.curStart = b.curStart.Add(time.Duration(steps) * bucketLen)
}

// resetWindow clears every bucket (mu held).
func (b *Breaker) resetWindow() {
	for i := range b.buckets {
		b.buckets[i] = breakerBucket{}
	}
}
