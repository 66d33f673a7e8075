package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/core"
	"gowool/internal/poolerr"
	"gowool/internal/sched"
)

// lane is one worker team slot: a small pool of LaneWidth workers, a
// one-ticket mailbox, and a goroutine. At most one request runs on the
// pool at a time — concurrency across requests comes from the number
// of lanes — but it need not run on the lane's goroutine: a mailed
// ticket is taken either by that goroutine (the thief) or by the
// submitter's own Ticket.Wait (the join), which then runs it on this
// pool from the calling goroutine.
//
// Dispatch states, all transitions under the server mutex
// (DESIGN.md §16.1):
//
//	idle     in Server.idle: mailbox empty, nobody on the pool
//	mailed   mail != nil: Submit (or a retry) put a ticket here and
//	         woke the goroutine: through the timer if it served the
//	         lane's last ticket polled and unjoined, else with a token
//	         of its own (chooseWake, rouse)
//	serving  the goroutine took the ticket (or owns the lane to drain
//	         the queues, quarantine, or close the pool)
//	borrowed a Wait caller took the ticket and owns pool and lane
//	back     a borrower (or Close) returned the lane to its goroutine
//
// Invariants:
//
//  1. Exactly once: a mailed ticket is taken by exactly one of the
//     lane's goroutine, a Wait caller and Close — unmail, under the
//     server mutex, is the only way out of a mailbox.
//  2. Progress without Wait: whoever fills a mailbox wakes its
//     goroutine after unlocking — a token it sends itself, or one the
//     timer sends after its Reset(0) — so a ticket nobody Waits on still
//     runs. Wake tokens are only hints: a goroutine that wakes to an
//     empty mailbox and no hand-back parks again and leaves the lane
//     alone — whoever emptied the mailbox owns the lane's next state.
//  3. Idle implies nothing queued: a lane enters Server.idle only when
//     Server.backlog finds no queued work for it, and dispatch mails an
//     idle lane whenever one exists; so queued tickets always have a
//     busy lane that will drain them, and per-tenant FIFO order, home
//     affinity and MaxPending admission do not depend on who runs a
//     request.
//  4. A borrowed lane belongs to the borrower: its goroutine touches
//     neither pool nor lane state and Close leaves the pool open until
//     release. The pool changes hands only through the server mutex
//     (worker 0's owner-private fields are plain memory). A borrower
//     runs only its own ticket: on release the lane goes idle if
//     nothing else needs it, else back to its goroutine, which
//     quarantines before it takes anything.
//  5. Stats().Pending counts mailed tickets with queued ones.
type lane struct {
	srv  *Server
	idx  int
	tn   *tenant // home team
	opts sched.Options

	// pool is the lane's pool: whoever owns the lane runs a request on
	// it, aborts it for a cancellation and Resets it back into service;
	// Health loads it from any goroutine, and only replacePool, on the
	// lane's goroutine, swaps it.
	pool atomic.Pointer[core.Pool]

	// mail is the mailbox and back the hand-back flag, both guarded by
	// the server mutex. wake carries the goroutine's wake tokens; one
	// slot, because a token says "look", not how often. timer is the
	// second way to send one: stopped until rouse re-arms it with
	// Reset(0), it runs wakeup on whichever P runs the expired timer.
	// The goroutine parks on wake alone, because a select over a second
	// channel would cost every park and wake of the joined path.
	mail  *Ticket
	back  bool
	wake  chan struct{}
	timer *time.Timer

	// last is the ticket the goroutine served before it parked the lane
	// in the idle set, kept until the lane is next mailed: chooseWake
	// reads how its submitter asked for it. timerWakes counts the wakes
	// chooseWake gave the timer. Both are guarded by the server mutex.
	last       *Ticket
	timerWakes int

	// wantQuarantine belongs to the lane's owner: set by the attempt
	// whose Reset failed or whose failure tripped the streak — on the
	// goroutine or on a borrower — and consumed by the goroutine before
	// it takes the next request.
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

// unmail empties the mailbox (server mutex held) and returns what was
// in it: the one step by which a mailed ticket changes hands.
func (l *lane) unmail() *Ticket {
	t := l.mail
	if t != nil {
		l.mail, t.box = nil, nil
		t.tn.mailed--
	}
	return t
}

// wakeup sends the goroutine a wake token unless one is already
// waiting for it. Call it after releasing the server mutex.
func (l *lane) wakeup() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// chooseWake picks how rouse wakes the goroutine of the mailbox
// dispatch just filled (server mutex held), and reports true for the
// timer. The timer goes to a goroutine that served the lane's last
// ticket while its submitter polled Done and no Wait joined it: that
// submitter keeps running, and its own token would leave the goroutine
// in its runnext slot until an idle P steals it after the runtime's
// back-off, where the idle P runs an expired timer at once and the
// token it sends readies the goroutine there. Everything else gets the
// submitter's token: a joiner runs the request anyway, and the
// goroutine readied into its runnext is what keeps closed-loop clients
// from spinning on the server mutex (DESIGN.md §16.1). So does a
// ticket nobody asked about before it finished, which is what a joiner
// descheduled between Submit and Wait leaves too. last lives from next,
// which parks the goroutine, to this call, so a non-nil last also says
// the goroutine is parked with no wake armed.
func (l *lane) chooseWake() (timer bool) {
	if t := l.last; t != nil {
		t.mu.Lock()
		timer = t.done != nil && !t.joined
		t.mu.Unlock()
		l.last = nil
		if timer {
			l.timerWakes++
		}
	}
	return timer
}

// rouse wakes the goroutine the way chooseWake picked. Call it after
// releasing the server mutex.
func (l *lane) rouse(timer bool) {
	if timer {
		l.timer.Reset(0)
		return
	}
	l.wakeup()
}

// loop is the lane's goroutine, the thief of the pair: it parks on
// wake, and each token makes it look for something that is its own — a
// mailed ticket nobody joined, or a lane handed back. Owning the lane,
// it serves, quarantines and drains the queues until next parks the
// lane in the idle set or the server has closed, when it closes the
// pool (nobody else ever does).
func (l *lane) loop() {
	s := l.srv
	defer s.wg.Done()
	for range l.wake {
		s.mu.Lock()
		t := l.unmail()
		mine := t != nil || l.back
		l.back = false
		s.mu.Unlock()
		for mine {
			if t != nil {
				l.serveOne(t)
			}
			// Before next, always: the pool a borrower's attempt
			// condemned must not serve a queued request.
			if l.wantQuarantine {
				l.wantQuarantine = false
				l.quarantine()
			}
			var closed bool
			if t, closed = l.next(t); closed {
				l.pool.Load().Close()
				return
			}
			mine = t != nil
		}
	}
}

// next is the owner goroutine's step after serving a request (served,
// nil after a hand-back): the next queued ticket for this lane
// (Server.backlog), else the lane goes idle and its goroutine parks.
// The second result reports a closed server with nothing left to
// serve.
func (l *lane) next(served *Ticket) (t *Ticket, closed bool) {
	s := l.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if tn := s.backlog(l); tn != nil {
		return tn.pop(), false
	}
	if s.closed {
		return nil, true
	}
	s.idle = append(s.idle, l)
	l.last = served
	return nil, false
}

// release ends a borrow (Ticket.Wait, after serveOne): the lane goes
// idle when nothing else needs it, and otherwise — work queued, server
// closed, or the attempt asked for quarantine — back to its goroutine,
// because a borrower runs no request but its own and neither replaces
// nor closes a pool.
func (l *lane) release() {
	s := l.srv
	s.mu.Lock()
	if !l.wantQuarantine && !s.closed && s.backlog(l) == nil {
		s.idle = append(s.idle, l)
		s.mu.Unlock()
		return
	}
	l.back = true
	s.mu.Unlock()
	l.wakeup()
}

// serveOne runs one request's next attempt on the lane's pool,
// threading the request's context through the pool's abort machinery
// and restoring the pool to health afterwards. It runs on whichever
// goroutine owns the lane: the lane's own, or a Wait caller's.
//
// A context that can end is watched by the pool's owner, the goroutine
// running the request (core.Pool.Watch): every few spawns it reads the
// clock against the deadline and polls Done, and once the context has
// ended it aborts its own pool, so the run unwinds with the
// *poolerr.AbortError. No other goroutine takes part, so a deadline is
// kept whether or not a P is spare, and the abort cannot land on a later
// request: only this run polls this context. A cancellation is seen at
// the owner's next poll, and a request with no spawn left after its
// deadline completes normally.
//
// An attempt reads the clock twice, both times since epoch: start before
// the run and end right after it. finishAttempt hands end to everything
// that needs the attempt's finishing time — the estimator (end − start),
// the breaker's window and trip, and the ticket's latency — instead of
// each reading the clock itself (DESIGN.md §16.1, *Ledger, one stamp*).
// end is read again only after Resetting a poisoned pool, so Latency
// covers the Reset.
func (l *lane) serveOne(t *Ticket) {
	if err := t.ctx.Err(); err != nil {
		// Cancelled before it started: fail at dispatch without running.
		now := time.Since(epoch)
		l.finishAttempt(t, 0, err, now, now)
		return
	}

	p := l.pool.Load()
	watched := t.ctx.Done() != nil
	if watched {
		p.Watch(t.ctx)
	}
	start := time.Since(epoch)
	val, err := runJob(p, t.job)
	end := time.Since(epoch)
	if watched {
		p.Watch(nil)
	}

	// Restore pool health before touching the next request: Reset is
	// the one way back into service; quarantine (replace and probe)
	// takes over only when it fails.
	if cause, poisoned := p.Poisoned(); poisoned {
		if ae, ok := cause.(*poolerr.AbortError); ok && err != nil {
			// The run unwound with the abort, or with a task panic raised
			// after it; either way the request's classifying error is the
			// abort reason.
			err = ae.Reason
			if err == nil {
				err = ae
			}
		}
		if l.srv.inj.Fail(chaos.ServeLaneResetFail) {
			// Chaos: behave as if Reset failed without calling it —
			// quarantine discards the pool either way.
			l.wantQuarantine = true
		} else if rerr := p.Reset(); rerr != nil {
			l.wantQuarantine = true
		}
		end = time.Since(epoch)
	}

	l.finishAttempt(t, val, err, start, end)
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
// finishes the ticket or hands it to the retry machinery. start and end
// are the attempt's stamps since epoch; end is the one reading of the
// attempt's finishing time for all of them.
func (l *lane) finishAttempt(t *Ticket, val int64, err error, start, end time.Duration) {
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
	} else if tn.breaker != nil && (oc == outcomeOK || oc == outcomeFailure) {
		tn.breaker.RecordAt(oc == outcomeOK, epoch.Add(end))
	}
	switch oc {
	case outcomeOK:
		l.streak.Store(0)
		if tn.est != nil {
			tn.est.Observe(t.job.class(), end-start)
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
	t.finish(val, err, end)
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
			// Closing: stop probing; next will see the closed server
			// and loop shuts the lane down.
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

// probe is the quarantine health probe: a small fib-shaped spawn tree,
// enough to exercise the replacement pool's spawn/join and steal paths
// without measurable cost.
var probe = Rec(sched.RecJob{
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

// probeOnce runs one health probe on the (fresh) pool.
func (l *lane) probeOnce() bool {
	l.probes.Add(1)
	if l.srv.inj.Fail(chaos.ServeProbeFail) {
		l.probeFailures.Add(1)
		return false
	}
	v, err := runJob(l.pool.Load(), probe)
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
	old := l.pool.Swap(newLanePool(l.opts))
	l.replacements.Add(1)
	old.Close()
}

// runJob runs the request's root on the pool, converting the
// scheduler's panic-based failure surface into an error: a
// *poolerr.AbortError (request cancellation) unwraps to its reason, a
// *poolerr.WatchdogError passes through typed (it classifies as
// retryable), anything else becomes a *PanicError.
func runJob(p *core.Pool, job Job) (v int64, err error) {
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
	return job.run(p), nil
}
