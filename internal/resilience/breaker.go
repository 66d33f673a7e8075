package resilience

import (
	"sync"
	"sync/atomic"
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
//
// Successes on a closed breaker may also be counted lock-free, each
// writer in a BreakerShard of its own (NewShard): the window is the
// breaker's ring plus every shard's ring, summed only where a decision
// or a snapshot needs it (evaluate, Health).
type Breaker struct {
	// closedNow is state == BreakerClosed, for the paths that take no
	// lock: Allow on a closed breaker and BreakerShard.Success. Written
	// under mu with every change of state.
	closedNow atomic.Bool

	mu  sync.Mutex
	cfg BreakerConfig
	// now is the breaker's clock. Every method reads it but RecordAt,
	// whose caller passes a reading of it instead.
	now func() time.Time

	state    BreakerState
	openedAt time.Time

	// The window ring: epoch e covers [start + e·bucketLen, start +
	// (e+1)·bucketLen) and lives in bucket e mod Buckets. cur is
	// curEpoch's bucket and curStart its start; they advance as outcomes
	// arrive, always by whole epochs, so the ring's phase stays the one
	// it had at construction and agrees with the shards' epoch tags.
	buckets   []breakerBucket
	start     time.Time
	bucketLen time.Duration
	cur       int
	curStart  time.Time
	curEpoch  int64

	// shards are the lock-free success counters NewShard handed out.
	// resetEpoch is the epoch of the last half-open → closed reset:
	// shard counts from earlier epochs are excluded from the window, and
	// so is each shard's base, its count in resetEpoch at the reset.
	shards     []*BreakerShard
	resetEpoch int64

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
		cfg:       cfg,
		now:       now,
		buckets:   make([]breakerBucket, cfg.Buckets),
		bucketLen: cfg.Window / time.Duration(cfg.Buckets),
	}
	b.start = now()
	b.curStart = b.start
	b.closedNow.Store(true)
	return b
}

// BreakerShard counts one writer's successes on a closed breaker without
// taking its lock: a ring of Buckets words, each tagged with the epoch it
// counts (epoch<<32 | count), which a write to a later epoch restarts.
// Each shard must have a single writer — the serving layer gives one to
// every (lane, tenant) pair — while evaluate and Health read them all.
type BreakerShard struct {
	b     *Breaker
	words []atomic.Uint64
	// base is the count this shard had in the reset epoch when the
	// breaker last closed from half-open (Breaker.mu).
	base uint64
}

// NewShard registers a shard with b.
func (b *Breaker) NewShard() *BreakerShard {
	n := len(b.buckets)
	// The spare capacity is never used: it keeps another shard's words,
	// allocated next to these, off their last cache line.
	sh := &BreakerShard{b: b, words: make([]atomic.Uint64, n, n+8)}
	b.mu.Lock()
	b.shards = append(b.shards, sh)
	b.mu.Unlock()
	return sh
}

// Success counts one success at now (a reading of the breaker's clock)
// when the breaker is closed, and reports whether it did. On false the
// caller records the outcome with RecordAt, which also drives the
// half-open and open states.
func (sh *BreakerShard) Success(now time.Time) bool {
	b := sh.b
	if !b.closedNow.Load() {
		return false
	}
	e := b.epochOf(now)
	w := &sh.words[e%int64(len(sh.words))]
	tag := uint64(uint32(e)) << 32
	if old := w.Load(); old&^0xffffffff == tag {
		w.Store(old + 1)
	} else {
		w.Store(tag | 1)
	}
	return true
}

// epochOf is the window epoch that now falls in; a reading before the
// breaker was built counts in epoch 0.
func (b *Breaker) epochOf(now time.Time) int64 {
	d := now.Sub(b.start)
	if d < 0 {
		return 0
	}
	return int64(d / b.bucketLen)
}

// shardSuccesses sums the shards' counts inside the window (mu held,
// ring rolled): an epoch at most Buckets-1 behind curEpoch, or ahead of
// it (a writer read the clock after the last roll), and not before the
// last reset.
func (b *Breaker) shardSuccesses() (n int64) {
	nb := int64(len(b.buckets))
	for _, sh := range b.shards {
		for i := range sh.words {
			w := sh.words[i].Load()
			age := int64(int32(uint32(b.curEpoch) - uint32(w>>32)))
			e := b.curEpoch - age
			if age >= nb || e < b.resetEpoch {
				continue
			}
			c := w & 0xffffffff
			if e == b.resetEpoch {
				c -= min(c, sh.base)
			}
			n += int64(c)
		}
	}
	return n
}

// Allow decides one admission. ok reports whether the request may
// proceed; probe is true when the breaker is half-open and this
// request is one of its probes — the caller must report the probe's
// outcome with ProbeDone (Record for non-probes).
func (b *Breaker) Allow() (ok, probe bool) {
	if b.closedNow.Load() {
		return true, false
	}
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
		// The shards start over too: their counts up to now stay out of
		// the window, those in this very epoch through their bases.
		b.resetEpoch = b.curEpoch
		nb := uint32(len(b.buckets))
		for _, sh := range b.shards {
			sh.base = 0
			if w := sh.words[uint32(b.curEpoch)%nb].Load(); w>>32 == uint64(uint32(b.curEpoch)) {
				sh.base = w & 0xffffffff
			}
		}
		b.closedNow.Store(true)
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
	s, f := b.shardSuccesses(), int64(0)
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
	s, f := b.shardSuccesses(), int64(0)
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
	b.closedNow.Store(false)
	b.state = BreakerOpen
	b.openedAt = now
	b.opened++
	b.probesInFlight = 0
	b.probeSuccesses = 0
}

// roll ages the window ring forward to now (mu held), by whole epochs;
// a now before curStart leaves the ring where it is.
func (b *Breaker) roll(now time.Time) {
	elapsed := now.Sub(b.curStart)
	if elapsed < b.bucketLen {
		return
	}
	steps := int(elapsed / b.bucketLen)
	if steps >= len(b.buckets) {
		b.resetWindow()
		b.cur = (b.cur + steps) % len(b.buckets)
	} else {
		for i := 0; i < steps; i++ {
			b.cur = (b.cur + 1) % len(b.buckets)
			b.buckets[b.cur] = breakerBucket{}
		}
	}
	b.curStart = b.curStart.Add(time.Duration(steps) * b.bucketLen)
	b.curEpoch += int64(steps)
}

// resetWindow clears every bucket (mu held).
func (b *Breaker) resetWindow() {
	for i := range b.buckets {
		b.buckets[i] = breakerBucket{}
	}
}
