package serve

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/core"
	"gowool/internal/poolerr"
	"gowool/internal/resilience"
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
// Dispatch states, one word (st; DESIGN.md §16.1):
//
//	idle    mailbox empty, nobody on the pool
//	mailed  a submitter (or a retry) claimed the lane with
//	        CompareAndSwap(idle, mailed) and puts a ticket in the mailbox
//	        (t.box, then mail), then wakes the goroutine: through the
//	        timer if it served the lane's last ticket polled and unjoined,
//	        else with a token of its own (post, chooseWake, rouse)
//	busy    the lane has an owner: the taker that won the ticket — the
//	        goroutine (serving), a Wait caller (borrowed) or Close — or
//	        the goroutine, handed the lane back (back) to drain the
//	        queues, quarantine, or close the pool
//
// Invariants:
//
//  1. Exactly once: a mailed ticket is taken by exactly one of the
//     lane's goroutine, a Wait caller and Close — whichever wins
//     t.box.CompareAndSwap(l, nil), the paper's one CAS on a
//     descriptor — and the winner clears mail and sets the lane busy.
//  2. Progress without Wait: whoever fills a mailbox wakes its
//     goroutine afterwards — a token it sends itself, or one the timer
//     sends after its Reset(0) — so a ticket nobody Waits on still
//     runs. Wake tokens are only hints: a goroutine that wakes to an
//     empty mailbox and no hand-back parks again and leaves the lane
//     alone — whoever emptied the mailbox owns the lane's next state.
//  3. Idle implies nothing queued, kept by a Dekker pair: release
//     stores idle and then loads the server's queued count, an enqueuer
//     adds to the count and then looks for an idle lane, so one of them
//     sees the other, and whoever wins CompareAndSwap(idle, busy) hands
//     the lane to its goroutine to drain the queues (next parks a lane
//     under the server mutex and looks at the queues there). Submit
//     claims a lane without the mutex only while the count is 0, so
//     per-tenant FIFO order, home affinity and MaxPending admission do
//     not depend on who runs a request.
//  4. A borrowed lane belongs to the borrower: its goroutine touches
//     neither pool nor lane state and Close leaves the pool open until
//     release. The pool changes hands only through the box CAS, the
//     state word and the server mutex (worker 0's owner-private fields
//     are plain memory). A borrower runs only its own ticket: on
//     release the lane goes idle if nothing else needs it, else back to
//     its goroutine, which quarantines before it takes anything.
//  5. Stats().Pending counts mailed tickets, a scan of the mailboxes,
//     with queued ones.
type lane struct {
	_ [64]byte

	// The dispatch words, written by the lane's submitters and takers,
	// on a cache line of their own. st is the state; mail the mailbox;
	// back the hand-back flag, swapped to false by every wake that finds
	// it set. last is the ticket the goroutine served before next parked
	// the lane idle, kept until the lane is next claimed: chooseWake
	// reads how its submitter asked for it. next writes last before it
	// stores idle, and the claimant reads and clears it before it mails,
	// so the state word orders both.
	//
	// woolvet:atomic methods=Load,Store,CompareAndSwap
	st   atomic.Int32
	back atomic.Bool
	// woolvet:atomic methods=Load,Store,CompareAndSwap
	mail atomic.Pointer[Ticket]
	last *Ticket
	// joins counts the requests Wait callers ran on the lane, for their
	// yields (joinsPerYield); the borrower counts while it owns the lane.
	joins uint64
	_     [64 - 32]byte

	srv  *Server
	idx  int
	tn   *tenant // home team
	opts sched.Options
	// cells holds the lane's share of each tenant's counters and
	// resilience state, indexed by tenant.idx.
	cells []laneCell

	// pool is the lane's pool: whoever owns the lane runs a request on
	// it, aborts it for a cancellation and Resets it back into service;
	// Health loads it from any goroutine, and only replacePool, on the
	// lane's goroutine, swaps it.
	pool atomic.Pointer[core.Pool]

	// wake carries the goroutine's wake tokens; one slot, because a
	// token says "look", not how often. timer is the second way to send
	// one: stopped until rouse re-arms it with Reset(0), it runs wakeup on
	// whichever P runs the expired timer. The goroutine parks on wake
	// alone, because a select over a second channel would cost every
	// park and wake of the joined path. timerWakes counts the wakes
	// chooseWake gave the timer.
	wake       chan struct{}
	timer      *time.Timer
	timerWakes atomic.Int64

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

// Lane states, the values of lane.st.
const (
	laneIdle int32 = iota
	laneMailed
	laneBusy
)

// laneCell is one (lane, tenant) pair's share of the tenant's state,
// with a single writer for each word: the submitter that claimed the
// lane counts the submission before it mails, and the lane's owner
// counts the outcome and feeds the breaker and estimator shards. Stats
// and Health sum the cells. The padding keeps two lanes' cells off one
// cache line.
type laneCell struct {
	counters
	brk *resilience.BreakerShard
	est *resilience.EstimatorShard
	_   [64 - 48]byte
}

// cell is the lane's share of tn.
func (l *lane) cell(tn *tenant) *laneCell { return &l.cells[tn.idx] }

// bump counts one on a counter that has a single writer: a load and a
// store, no read-modify-write.
func bump(c *atomic.Int64) { c.Store(c.Load() + 1) }

// post mails t to l, which the caller claimed (CompareAndSwap(idle,
// mailed)), and reports how the goroutine is to be woken: rouse, after
// any unlock. chooseWake reads and clears last before the ticket can be
// seen, since a taker may run and park the lane again at once.
func (l *lane) post(t *Ticket) (timer bool) {
	timer = l.chooseWake()
	t.box.Store(l)
	l.mail.Store(t)
	return timer
}

// took is the step of the taker that won t.box.CompareAndSwap(l, nil):
// the mailbox empties and the lane is the winner's.
func (l *lane) took() {
	l.mail.Store(nil)
	l.st.Store(laneBusy)
}

// handBack gives the lane, which its caller owns, to its goroutine.
func (l *lane) handBack() {
	l.back.Store(true)
	l.wakeup()
}

// wakeup sends the goroutine a wake token unless one is already
// waiting for it. Call it after releasing the server mutex.
func (l *lane) wakeup() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// chooseWake picks how rouse wakes the goroutine of the mailbox about
// to be filled (its claimant calls it), and reports true for the
// timer. The timer goes to a goroutine that served the lane's last
// ticket while its submitter polled Done and no Wait joined it: that
// submitter keeps running, and its own token would leave the goroutine
// in its runnext slot until an idle P steals it after the runtime's
// back-off, where the idle P runs an expired timer at once and the
// token it sends readies the goroutine there. Everything else gets the
// submitter's token: a joiner runs the request anyway, and the
// goroutine readied into its runnext is what keeps closed-loop clients
// from spinning (DESIGN.md §16.1). So does a ticket nobody asked about
// before it finished, which is what a joiner descheduled between Submit
// and Wait leaves too. last lives from next, which parks the goroutine,
// to this call, so a non-nil last also says the goroutine is parked
// with no wake armed.
func (l *lane) chooseWake() (timer bool) {
	if t := l.last; t != nil {
		f := t.flags.Load()
		timer = f&ticketPolled != 0 && f&ticketJoined == 0
		l.last = nil
		if timer {
			l.timerWakes.Add(1)
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
// wake, and each token makes it look, without a lock, for something
// that is its own — a mailed ticket it wins, or a lane handed back.
// Owning the lane, it serves, quarantines and drains the queues until
// next parks the lane idle or the server has closed, when it closes
// the pool (nobody else ever does).
func (l *lane) loop() {
	defer l.srv.wg.Done()
	for range l.wake {
		back := l.back.Load() && l.back.Swap(false)
		var t *Ticket
		if m := l.mail.Load(); m != nil && m.box.CompareAndSwap(l, nil) {
			l.took()
			t = m
		}
		for mine := t != nil || back; mine; {
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
// It runs under the server mutex, as every enqueue does, so it needs no
// Dekker pair. The second result reports a closed server with nothing
// left to serve.
func (l *lane) next(served *Ticket) (t *Ticket, closed bool) {
	s := l.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if tn := s.backlog(l); tn != nil {
		return s.pop(tn), false
	}
	if s.closed.Load() {
		return nil, true
	}
	l.last = served
	l.st.Store(laneIdle)
	return nil, false
}

// release ends a borrow (Ticket.Wait, after serveOne) with one store:
// the lane goes idle. Then it looks whether anything else needs the lane
// — work queued or the server closed — and if so takes it back, unless
// a submitter, an enqueuer or Close has claimed it meanwhile, and hands
// it to its goroutine, because a borrower runs no request but its own
// and neither replaces nor closes a pool. An attempt that asked for
// quarantine hands the lane back without letting go of it.
func (l *lane) release() {
	if !l.wantQuarantine {
		s := l.srv
		l.st.Store(laneIdle)
		if s.queued.Load() == 0 && !s.closed.Load() {
			return
		}
		if !l.st.CompareAndSwap(laneIdle, laneBusy) {
			return
		}
	}
	l.handBack()
}

// shut is Close's visit to the lane: an idle lane is claimed and a
// mailed ticket taken, and either way the lane goes back to its
// goroutine, which finds the server closed and closes the pool; the
// owner of a busy lane gets there itself (next, release). It returns
// the ticket it took from the mailbox, if any. A claimed lane whose
// mailbox is still empty is a claimant between its CAS and its mail
// store, or a taker between its CAS and took, a few instructions away.
func (l *lane) shut() *Ticket {
	for {
		switch l.st.Load() {
		case laneIdle:
			if l.st.CompareAndSwap(laneIdle, laneBusy) {
				l.handBack()
				return nil
			}
		case laneMailed:
			if t := l.mail.Load(); t != nil && t.box.CompareAndSwap(l, nil) {
				l.took()
				l.handBack()
				return t
			}
			runtime.Gosched()
		default:
			return nil
		}
	}
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
// An attempt reads the clock once, since epoch, right after the run:
// end. finishAttempt hands it to everything that needs the attempt's
// finishing time — the breaker's window and trip, the ticket's latency
// and the estimator — instead of each reading the clock itself
// (DESIGN.md §16.1, *Ledger, one stamp*). Only an attempt the estimator
// is due to sample (resilience.EstimatorShard.Due: every request of a
// class until the lane holds MinSamples of it, then one in 16) reads
// start before the run as well, for its service time end − start. end
// is read again only after Resetting a poisoned pool, so Latency covers
// the Reset.
func (l *lane) serveOne(t *Ticket) {
	ctx := t.context()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			// Cancelled before it started: fail at dispatch without running.
			now := time.Since(epoch)
			l.finishAttempt(t, 0, err, unsampled, now)
			return
		}
	}

	p := l.pool.Load()
	if ctx != nil {
		p.Watch(ctx)
	}
	start := unsampled
	if est := l.cell(t.tn).est; est != nil && est.Due(t.job.class()) {
		start = time.Since(epoch)
	}
	val, err := runJob(p, t.job)
	end := time.Since(epoch)
	if ctx != nil {
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

// unsampled is the start stamp of an attempt the estimator did not
// sample.
const unsampled time.Duration = -1

// finishAttempt feeds one attempt's outcome into the resilience state
// (breaker, estimator, retry budget, failure streak) and either
// finishes the ticket or hands it to the retry machinery. start and end
// are the attempt's stamps since epoch, start unsampled unless the
// estimator is due a sample; end is the one reading of the attempt's
// finishing time for all of them. A success on a closed breaker, its
// service-time sample and its outcome go to the lane's cell of the
// tenant, whose one writer is the lane's owner; within the epoch of the
// cell's last success the breaker's count is two compares and a store
// (resilience.BreakerShard.SuccessSince). A full retry budget is one
// load, and so is an unbroken streak. Only a failure, a probe or a
// breaker that is not closed takes a tenant lock.
func (l *lane) finishAttempt(t *Ticket, val int64, err error, start, end time.Duration) {
	tn := t.tn
	c := l.cell(tn)
	oc := outcomeOf(err)
	if x := t.ext.Load(); x != nil && x.probe {
		x.probe = false
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
			if !c.brk.SuccessSince(epoch, end) {
				tn.breaker.RecordAt(true, epoch.Add(end))
			}
		case outcomeFailure:
			tn.breaker.RecordAt(false, epoch.Add(end))
		}
	}
	switch oc {
	case outcomeOK:
		if l.streak.Load() != 0 {
			l.streak.Store(0)
		}
		if start != unsampled {
			c.est.Observe(t.job.class(), end-start)
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
			x := t.extension()
			x.attempt++
			if backoff, ok := tn.retrier.Next(x.attempt); ok && l.srv.scheduleRetry(t, backoff) {
				tn.retried.Add(1)
				return // the retry timer owns the ticket now
			}
		}
	}
	t.finish(val, err, end, c)
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
