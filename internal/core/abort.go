package core

// Request-scoped abort and pool revival (DESIGN.md §16).
//
// The shared poison record (wskit.Life, DESIGN.md §18) is pool-wide and
// terminal: a task panic poisons the pool, Run re-raises, and the only
// safe call left is Close. That is the right contract for batch use, but a
// serving layer (internal/serve) runs many independent requests
// through one pool and needs the poison scoped to a request: cancel
// THIS run, then return the pool to service. Three pieces deliver
// that:
//
//   - Abort(reason) poisons the pool deliberately, with a
//     *poolerr.AbortError carrying the reason. The existing abort
//     checks unwind the in-flight Run exactly as a task panic would,
//     so Run re-raises the AbortError and the caller can tell a
//     cancellation from a genuine panic by type.
//
//   - Poisoned() observes the poison without Run's panic, so the
//     serving layer can decide whether the pool needs revival.
//
//   - Reset() revives a poisoned pool: wait until every worker has
//     quiesced (parked on the idle engine or on the poison gate),
//     clear the abandoned task trees, and lift the poison. After a
//     successful Reset the pool accepts Run again.
//
// Reviving requires that poisoned workers stay around: idleLoop
// blocks poisoned workers on a gate (poisonPark) instead of exiting
// their goroutines, and both Close and Reset open the gate — Close to
// let them observe shutdown and exit, Reset to put them back to
// stealing.

import (
	"errors"
	"runtime"
	"time"

	"gowool/internal/poolerr"
)

// Abort poisons the pool with a *poolerr.AbortError so the in-flight
// Run (if any) unwinds and re-raises it. It is safe to call from any
// goroutine, concurrently with Run; for a served request the owner calls
// it itself, when the context armed with Watch has ended (watch.go). It
// returns true when this call did the poisoning, false when the pool was
// already poisoned (by a task panic or an earlier Abort — first cause
// wins) or already closed.
//
// Abort does not wait for the Run to unwind: the abort is observed at
// each worker's next spawn, or within 32 joins where it only joins
// (tripWires, pollAbort; DESIGN.md §16.2 lists the observation points).
// Workers never initiate new steals once poisoned, and a task already
// claimed by a steal still reaches DONE (its body is skipped, see
// runStolen), so the unwind cannot strand a joiner.
func (p *Pool) Abort(reason error) bool {
	if p.life.Closed() {
		return false
	}
	// poisonMu: Reset lifts the poison and opens the gate under it, so
	// an Abort lands wholly before or wholly after that revival.
	p.poisonMu.Lock()
	defer p.poisonMu.Unlock()
	return p.life.Poison(&poolerr.AbortError{Reason: reason})
}

// tripWires asks every worker to leave the private path: the trip wire
// is the flag by which another party sends the owner's next spawn to
// publishMore, and publishMore re-raises the poison before it publishes
// anything. It is the pool's Life.OnPoison: the call that poisons trips
// them, whichever it is — Abort, a thief whose stolen task panicked, or
// Run on its way out with a panic from the owner's side, which a thief
// deep in a private stretch would not notice otherwise — and only after
// the poison is stored: a worker that sees a flag set here sees the
// poison. The private fast path pays nothing for it; the flag is the
// one its spawn already loads. Reset clears the flags (resetAfterPoison)
// before it lifts the poison, so a trip never reaches the pool's next Run.
func (p *Pool) tripWires() {
	for _, w := range p.workers {
		w.morePublic.Store(true)
	}
}

// Poisoned reports whether the pool is poisoned, and by what: the
// original panic value of the task panic (or the *poolerr.AbortError
// of an Abort) that poisoned it. Unlike Run's poisoned panic this is
// a plain observation, usable by a serving layer deciding whether to
// Reset.
func (p *Pool) Poisoned() (cause any, poisoned bool) { return p.life.Poisoned() }

// Reset revives a poisoned pool so it can serve the next request. It
// returns nil immediately when the pool is not poisoned. Otherwise it
// waits until every worker is quiescent — blocked on the poison gate
// or parked on the idle engine; a worker still finishing a claimed
// stolen task is waited out, so a task body that never returns blocks
// Reset just as it would have blocked the join — then discards the
// abandoned task trees (unjoined descriptors never run; the serial
// state they computed into is the caller's to reconcile, which for
// the serving layer is simply the failed request's), clears a tripped
// watchdog's verdict, lifts the poison, and releases the gate.
//
// Reset must not race with Run: like Run it claims the running flag
// and returns poolerr.ErrConcurrentRun (wrapped) when it loses.
func (p *Pool) Reset() error {
	if p.life.Closed() {
		return errors.New("core: Reset on closed Pool")
	}
	if !p.life.Claim() {
		return poolerr.ConcurrentRun("core")
	}
	defer p.life.Release()
	if p.life.Healthy() {
		return nil
	}

	// Quiescence: every worker but worker 0 (whose driving goroutine —
	// the Run caller — already unwound, or is us) must be accounted for
	// as poison-gate-blocked or idle-parked. Both states are claim-free
	// and, while the poison holds, absorbing: a gate-blocked worker
	// stays until the gate opens, and a parked worker that a stray wake
	// releases re-enters the loop, sees the poison, and blocks on the
	// gate. So polling until the counts add up is race-free even
	// though the two counters are sampled separately.
	need := len(p.workers) - 1
	for spins := 0; ; spins++ {
		p.poisonMu.Lock()
		quiet := p.poisonWaiters
		p.poisonMu.Unlock()
		if p.idle != nil {
			quiet += int(p.idle.parked.Load())
		}
		if quiet >= need {
			break
		}
		if p.life.Closed() {
			return errors.New("core: pool closed during Reset")
		}
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}

	for _, w := range p.workers {
		w.resetAfterPoison()
	}

	// A watchdog verdict judged the run that just failed, not the next.
	p.wdErr.Store(nil)

	// Lift the poison and open the gate in one critical section: a
	// worker past the loop's poison check either registered on the gate
	// before we took poisonMu (and wakes when we close it) or enters
	// poisonPark after we release it, re-checks the poison, and declines
	// to block. Holding poisonMu here also serializes against a
	// concurrent Abort, which would otherwise land between the lift and
	// the gate opening (a task panic cannot: every worker is quiescent
	// and we hold the run claim).
	p.poisonMu.Lock()
	p.life.Lift()
	if p.poisonGate != nil {
		close(p.poisonGate)
		p.poisonGate = nil
	}
	p.poisonMu.Unlock()
	return nil
}

// poisonPark blocks the calling worker's goroutine while the pool is
// poisoned. It double-checks the poison and the shutdown flag under
// poisonMu, so a wake-up cannot be lost against Close or Reset (both
// close the gate under the same mutex, after their own flag writes).
func (p *Pool) poisonPark() {
	p.poisonMu.Lock()
	if p.life.Closed() || p.life.Healthy() {
		p.poisonMu.Unlock()
		return
	}
	if p.poisonGate == nil {
		p.poisonGate = make(chan struct{})
	}
	gate := p.poisonGate
	p.poisonWaiters++
	p.poisonMu.Unlock()
	<-gate
	p.poisonMu.Lock()
	p.poisonWaiters--
	p.poisonMu.Unlock()
}

// abortCheckPeriod is how many generic joins an owner performs between
// loads of the pool's poison flag (see Worker.pollAbort). Small enough
// that a poisoned single-worker request unwinds within microseconds,
// large enough that the amortized cost on the gated join ladder is one
// plain decrement per pair.
const abortCheckPeriod = 32

// pollAbort is the owner-path abort check, called from joinAcquire:
// every abortCheckPeriod-th generic join loads the poison flag and, if
// set, re-raises the poisoning value so the request's task tree
// unwinds (Run's recover then re-raises it to the caller; a thief's
// runStolen recover contains it). The amortization keeps the check
// out of the perf-gated join ladder's measured cost. It bounds a
// stretch of joins with no spawn in it (the public joins of a
// generated batch, ports.JoinNoopN); everywhere else the tripped wire
// gets there first, at the next spawn (tripWires), which is also the
// only check the generated private path (fastapi.go) has.
//
// woolvet:inline
func (w *Worker) pollAbort() {
	w.abortTick--
	if w.abortTick <= 0 {
		w.checkAbort()
	}
}

// checkAbort is pollAbort's every-32nd-join half, out of line so the
// countdown itself stays within the inliner's budget and joinAcquire
// pays three instructions per join, not a call (the woolvet:inline
// directive above pins that). Rethrow re-raises the original poisoning
// value (not a copy): Run's End finds the pool already poisoned and
// re-panics the same value, preserving the first-cause contract of
// DESIGN.md §18.
func (w *Worker) checkAbort() {
	w.abortTick = abortCheckPeriod
	w.pool.life.Rethrow()
}

// resetAfterPoison discards this worker's share of the abandoned task
// tree and returns its scheduling state to the post-NewPool values.
// Called only from Pool.Reset, with every worker quiescent, so the
// owner-private fields and the descriptor states are unshared.
//
//woolvet:allow publication -- Reset-time clears: the loop's back edge puts iteration i+1's fn/ctx writes "after" iteration i's state store, but no thief is live to acquire any descriptor here
func (w *Worker) resetAfterPoison() {
	for i := 0; i < w.top; i++ {
		t := &w.tasks[i]
		t.priv = false
		t.fn = nil
		t.ctx = nil // drop the abandoned tree's references for the GC
		//woolvet:allow atomicfield -- Reset-time clear: no thief is live to observe the store
		t.state.Store(stateEmpty)
	}
	w.top = 0
	w.bot.Store(0)
	w.ovf = w.ovf[:0]
	w.inlineRun = 0
	w.abortTick = 0
	w.morePublic.Store(false)
	w.pubShadow = w.pool.opts.initialPublicLimit()
	w.publicLimit.Store(w.pubShadow)
	w.markBlocked(false) // a blocked join unwound by a panic left its stamp
}
