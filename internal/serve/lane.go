package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/poolerr"
	"gowool/internal/sched"
)

// lane is one worker team slot: a small pool of LaneWidth workers and
// the goroutine that drains requests into it one at a time. The lane
// serializes Run calls onto its pool — concurrency across requests
// comes from the number of lanes.
type lane struct {
	srv  *Server
	idx  int
	tn   *tenant // home team
	opts sched.Options

	// mu guards the pool/ab pointer swaps against concurrent Health
	// readers. The lane goroutine is the only writer and the only
	// request-path reader, so it reads its own fields directly.
	mu   sync.Mutex
	pool sched.Pool
	// ab is the pool's request-scoped abort surface (New refuses a
	// backend without it): Abort cancels the request in flight, Reset
	// returns a poisoned pool to service.
	ab sched.Abortable

	// wantQuarantine is lane-goroutine-private: set when a Reset fails
	// or the failure streak trips, consumed by loop between requests.
	wantQuarantine bool

	// Health counters (DESIGN.md §17). quarantined flips while the lane
	// is out of rotation replacing and probing its pool.
	quarantined   atomic.Bool
	streak        atomic.Int32
	quarantines   atomic.Int64
	replacements  atomic.Int64
	probes        atomic.Int64
	probeFailures atomic.Int64
}

// loop drains requests until the server closes, then closes the pool.
// Quarantine runs between requests: the lane is simply absent from the
// queue-draining rotation while it replaces and probes its pool.
func (l *lane) loop() {
	defer l.srv.wg.Done()
	for {
		t := l.next()
		if t == nil {
			l.pool.Close()
			return
		}
		l.serveOne(t)
		if l.wantQuarantine {
			l.wantQuarantine = false
			l.quarantine()
		}
	}
}

// next blocks for the lane's next request: the home tenant's queue
// first (team affinity), otherwise the most backlogged queue relative
// to its weight (work conservation — an idle team helps the busiest
// tenant rather than idling, which cannot starve its own tenant: a
// home submission wakes a waiter and home work is always preferred).
// Returns nil when the server has closed and the queues are drained.
func (l *lane) next() *Ticket {
	s := l.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if t := l.tn.pop(); t != nil {
			return t
		}
		var best *tenant
		var bestScore float64
		for _, tn := range s.tenants {
			if len(tn.q) == 0 {
				continue
			}
			score := float64(len(tn.q)) / float64(tn.weight)
			if best == nil || score > bestScore {
				best, bestScore = tn, score
			}
		}
		if best != nil {
			return best.pop()
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// serveOne runs one request's next attempt on the lane's pool,
// threading the request's context through the pool's abort machinery
// and restoring the pool to health afterwards.
func (l *lane) serveOne(t *Ticket) {
	if err := t.ctx.Err(); err != nil {
		// Cancelled while queued: fail at dispatch without running.
		l.finishAttempt(t, 0, err, 0)
		return
	}

	// Arm the mid-flight cancellation: the context's cancellation
	// callback aborts this lane's pool, and the run unwinds with the
	// *poolerr.AbortError. The fired channel closes only after the
	// callback's Abort returned, so the stop/wait below guarantees the
	// abort cannot land on a LATER request of this lane: either we
	// stop the callback before it ran, or we wait out its poisoning
	// and Reset it away before the next request starts.
	var stop func() bool
	var fired chan struct{}
	if t.ctx.Done() != nil {
		ctx, ab, ch := t.ctx, l.ab, make(chan struct{})
		fired = ch
		stop = context.AfterFunc(ctx, func() {
			defer close(ch)
			ab.Abort(ctx.Err())
		})
	}

	start := time.Now()
	val, err := runJob(l.pool, t.job)
	dur := time.Since(start)

	if stop != nil && !stop() {
		<-fired
	}

	// Restore pool health before touching the next request: Reset is
	// the one way back into service; quarantine (replace and probe)
	// takes over only when it fails.
	if cause, poisoned := l.ab.Poisoned(); poisoned {
		if ae, ok := cause.(*poolerr.AbortError); ok && err != nil {
			// The abort landed before Run's first descriptor (the
			// poisoned-pool entry panic) or mid-flight; either way the
			// request's classifying error is the abort reason.
			err = ae.Reason
			if err == nil {
				err = ae
			}
		}
		if l.srv.inj.Fail(chaos.ServeLaneResetFail) {
			// Chaos: behave as if Reset failed without calling it —
			// quarantine discards the pool either way.
			l.wantQuarantine = true
		} else if rerr := l.ab.Reset(); rerr != nil {
			l.wantQuarantine = true
		}
	}

	l.finishAttempt(t, val, err, dur)
}

// Attempt outcome classes for the resilience accounting: only OK and
// failure feed the breaker and retry machinery; cancellations and
// sheds say nothing about tenant or lane health.
type outcome uint8

const (
	outcomeOK outcome = iota
	outcomeCancel
	outcomeShed
	outcomeFailure
)

// outcomeOf maps an attempt error onto the poolerr taxonomy.
func outcomeOf(err error) outcome {
	if err == nil {
		return outcomeOK
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return outcomeCancel
	}
	switch poolerr.ClassOf(err) {
	case poolerr.ClassShed:
		return outcomeShed
	case poolerr.ClassNonRetryable:
		return outcomeCancel
	default:
		// Retryable and unknown alike count as failures.
		return outcomeFailure
	}
}

// finishAttempt feeds one attempt's outcome into the resilience state
// (breaker, estimator, retry budget, failure streak) and either
// finishes the ticket or hands it to the retry machinery.
func (l *lane) finishAttempt(t *Ticket, val int64, err error, dur time.Duration) {
	tn := t.tn
	oc := outcomeOf(err)
	if t.probe {
		t.probe = false
		if tn.breaker != nil {
			switch oc {
			case outcomeOK:
				tn.breaker.ProbeDone(true)
			case outcomeFailure:
				tn.breaker.ProbeDone(false)
			default:
				tn.breaker.ProbeSkipped()
			}
		}
	} else if tn.breaker != nil {
		switch oc {
		case outcomeOK:
			tn.breaker.Record(true)
		case outcomeFailure:
			tn.breaker.Record(false)
		}
	}
	switch oc {
	case outcomeOK:
		l.streak.Store(0)
		if tn.est != nil {
			tn.est.Observe(t.class, dur)
		}
		if tn.retrier != nil {
			tn.retrier.OnSuccess()
		}
	case outcomeFailure:
		ns := l.streak.Add(1)
		if fs := l.srv.qcfg.FailureStreak; fs > 0 && int(ns) >= fs && !l.srv.res.DisableQuarantine {
			l.wantQuarantine = true
		}
		if t.Retryable {
			t.attempt++
			if backoff, ok := tn.retrier.Next(t.attempt); ok && l.srv.scheduleRetry(t, backoff) {
				tn.retried.Add(1)
				return // the retry timer owns the ticket now
			}
		}
	}
	finishTicket(t, val, err)
}

// finishTicket publishes the request's final outcome and counts it.
func finishTicket(t *Ticket, val int64, err error) {
	tn := t.tn
	switch {
	case err == nil:
		tn.completed.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		tn.cancelled.Add(1)
	default:
		tn.failed.Add(1)
	}
	t.val, t.err = val, err
	t.latency = time.Since(t.submitted)
	close(t.done)
}

// quarantine pulls the lane from rotation and hot-replaces its pool:
// replace, probe, and on a failed probe back off and replace again,
// until a probe passes or the server closes. With quarantine disabled
// it degrades to the plain in-place replacement.
func (l *lane) quarantine() {
	if l.srv.res.DisableQuarantine {
		l.replacePool()
		return
	}
	l.quarantined.Store(true)
	l.quarantines.Add(1)
	for {
		l.replacePool()
		if l.probeOnce() {
			break
		}
		select {
		case <-l.srv.closeCh:
			// Closing: stop probing; next() will see the closed server
			// and shut the lane down.
			l.quarantined.Store(false)
			l.streak.Store(0)
			return
		case <-time.After(l.srv.qcfg.ProbeBackoff):
		}
	}
	l.quarantined.Store(false)
	l.streak.Store(0)
}

// probeWant is fib(probeDepth), the expected probe result.
const probeDepth, probeWant = 6, 8

// probeJob builds the quarantine health probe: a small fib-shaped
// spawn tree, enough to exercise the replacement pool's spawn/join and
// steal paths without measurable cost.
func probeJob() Job {
	return Rec(sched.RecJob{
		Name: "__lane-probe",
		Root: probeDepth,
		Leaf: func(n int64) (int64, bool) {
			if n < 2 {
				return n, true
			}
			return 0, false
		},
		Split: func(n int64) (inline, spawned int64) { return n - 1, n - 2 },
	})
}

// probeOnce runs one health probe on the (fresh) pool.
func (l *lane) probeOnce() bool {
	l.probes.Add(1)
	if l.srv.inj.Fail(chaos.ServeProbeFail) {
		l.probeFailures.Add(1)
		return false
	}
	v, err := runJob(l.pool, probeJob())
	if err != nil || v != probeWant {
		l.probeFailures.Add(1)
		return false
	}
	return true
}

// replacePool swaps in a fresh pool built from the lane's recorded
// options and closes the old one (closing a poisoned pool is safe:
// its workers are released by Close, see the core poison gate).
func (l *lane) replacePool() {
	old := l.pool
	np := l.srv.sch.NewPool(l.opts)
	l.mu.Lock()
	l.pool, l.ab = np, np.Native().(sched.Abortable)
	l.mu.Unlock()
	l.replacements.Add(1)
	old.Close()
}

// runJob runs the request's root on the pool, converting the
// scheduler's panic-based failure surface into an error: a
// *poolerr.AbortError (request cancellation) unwraps to its reason, a
// *poolerr.WatchdogError passes through typed (it classifies as
// retryable), anything else becomes a *PanicError.
func runJob(p sched.Pool, j Job) (v int64, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if ae, ok := r.(*poolerr.AbortError); ok {
			if ae.Reason != nil {
				err = ae.Reason
			} else {
				err = ae
			}
			return
		}
		if we, ok := r.(*poolerr.WatchdogError); ok {
			err = we
			return
		}
		err = &PanicError{Val: r}
	}()
	return j.runOn(p), nil
}
