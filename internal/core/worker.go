package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/overflow"
	"gowool/internal/steal"
	"gowool/internal/trace"
	"gowool/internal/wskit"
)

// Worker is one scheduler worker. Worker 0 is driven by the goroutine
// that calls Pool.Run; the remaining workers are goroutines created by
// NewPool that steal until the pool is closed.
//
// The fields split into four groups, separated by cache-line pads so
// the owner's push/pop traffic and the thieves' probe traffic never
// share a line (checked by the woolvet layoutguard pass over the
// cacheline group annotations below):
//   - immutable after construction (pool, idx, idle, tasks backing
//     array): read by everyone, written by nobody after NewPool;
//   - owner-private (top, pubShadow, steal policy, counters,
//     overflow results): plain access only, touched exclusively by the
//     goroutine driving this worker;
//   - thief-shared protocol words (bot, publicLimit, morePublic):
//     atomics probed by every thief on every attempt;
//   - thief-side counters (stealAttempts, steals, ...): atomics this
//     worker bumps while acting as a thief, kept off the protocol line
//     so counter flushes do not invalidate it under the probing
//     thieves.
type Worker struct {
	// woolvet:cacheline group=immutable
	pool *Pool
	idx  int

	// idle is the pool's parking engine, or nil when parking is
	// disabled (spin mode's negative MaxIdleSleep, single-worker pools).
	idle *idleEngine

	// trc is this worker's wooltrace ring, or nil when tracing is
	// disabled (Options.Trace). The pointer is set once in NewPool and
	// only this worker's driving goroutine records into it; nil-ness is
	// the entire disabled-path cost (TestTraceOverheadDisabled).
	trc *trace.Ring

	// chs is this worker's chaos fault-injection agent, or nil when
	// injection is disabled (Options.Chaos). Same discipline and same
	// disabled-path cost as trc: set once in NewPool, consulted only by
	// this worker's driving goroutine, nil-checked at every hook site
	// (TestChaosOverheadDisabled).
	chs *chaos.Agent

	// tasks is the direct task stack: descriptors stored inline, strict
	// stack discipline. Fixed capacity (Options.StackSize); an
	// overflowing spawn degrades to inline serial execution (see ovf),
	// or panics under Options.StrictOverflow.
	tasks []Task

	_ [64]byte // pad: end of the immutable group

	// top indexes the next free descriptor. Private to the owner: this
	// is the decoupling the paper gets from synchronizing on the task
	// descriptor instead of on the indices.
	// woolvet:cacheline group=owner
	// woolvet:owner
	top int

	// pubShadow is the owner's private shadow of publicLimit. The owner
	// is the sole writer of publicLimit, so the spawn fast path and the
	// revocable cut-off compare against this plain copy instead of
	// paying an atomic load per spawn; the atomic below exists for the
	// thieves. Invariant (owner's view): pubShadow == publicLimit.
	// woolvet:owner
	pubShadow int64

	// inlineRun counts consecutive inlined public joins; a long run is
	// the signal that the public boundary is too high and can be pulled
	// back down (the revocable cut-off of Section III-B).
	// woolvet:owner
	inlineRun int

	// abortTick is the owner's countdown to the next poison check
	// (pollAbort, abort.go): the request-scoped abort token is loaded
	// only every abortCheckPeriod-th generic join, keeping the check
	// off the perf-gated join ladder's measured cost.
	// woolvet:owner
	abortTick int

	// pol is the victim-selection policy (internal/steal): the xorshift
	// stream, retention slot / scan cursor / neighborhood state that
	// used to live inline here as rng/lastVictim/retainMisses. Seeded
	// deterministically per worker in NewPool (Options.Steal);
	// owner-private like the fields it replaced.
	// woolvet:owner
	pol steal.Policy

	// probe is the read-only stealable probe handed to pol.Choose,
	// built once in NewPool (a per-attempt closure would allocate on
	// the idle path).
	// woolvet:owner
	probe func(int) bool

	// genFast gates the monomorphic fast-path API (fastapi.go): true
	// only when no per-event hook can fire on the private spawn/join
	// path — tracing disabled — so woolgen-generated code may bypass
	// the generic TaskDef* slow paths. Set once in NewPool.
	// woolvet:owner
	genFast bool

	// stats holds the owner-path counters (spawns, joins, ...): plain
	// fields written only by the goroutine driving this worker, and
	// ordered before any Stats() read through the joins that drain the
	// work. The thief-path counters live below as atomics, because
	// idle workers keep attempting steals even while the pool is
	// quiescent and those writes have no happens-before edge to a
	// Stats() reader.
	// woolvet:owner
	stats Stats

	// ovf holds the results of overflow-inlined spawns (graceful
	// degradation: a spawn finding the stack full runs the child inline
	// and records its result here instead of panicking). Strict LIFO,
	// like the stack it extends. Invariant: ovf is non-empty only while
	// top == len(tasks) — an entry is created only when the stack is
	// full, and popping the stack again first requires joining the
	// entry — so joinAcquire's head check is just len(ovf) > 0.
	// woolvet:owner
	ovf []int64

	// ovfTask is the scratch descriptor joinAcquire hands back for an
	// overflow-inlined join: the TaskDef Join paths read only t.res
	// from a non-inline join, so a single owner-private carrier
	// suffices (it never enters the stack and is never thief-visible).
	// woolvet:owner
	ovfTask Task

	_ [64]byte // pad: end of the owner-private group

	// bot indexes the bottom-most live task, the next steal candidate.
	// No lock protects it; see trySteal and joinSlow for the implicit
	// ownership protocol. The three protocol words must stay within one
	// cache line so a thief's probe costs a single line transfer.
	// woolvet:cacheline group=protocol maxspan=64
	// woolvet:atomic
	bot atomic.Int64

	// publicLimit: descriptors with index < publicLimit are public
	// (stealable, joined with an atomic exchange); descriptors at or
	// above it are private (invisible to thieves, joined with plain
	// loads and stores). When private tasks are disabled it is pinned
	// at the stack capacity. Written only by the owner (mirrored in
	// pubShadow); loaded by thieves.
	// woolvet:atomic
	publicLimit atomic.Int64

	// morePublic is the trip-wire notification flag: a thief that
	// steals close to the public boundary sets it, and so does whoever
	// poisons the pool (Pool.tripWires); the owner answers at its next
	// spawn (publishMore).
	// woolvet:atomic
	morePublic atomic.Bool

	_ [64]byte // pad: end of the thief-shared protocol group

	// Thief-side counters. stealAttempts and backoffs are batched in
	// plain locals by the steal loops and flushed here periodically
	// (see stealCounters), so the failed-attempt inner loop performs no
	// atomic RMW.
	// woolvet:cacheline group=counters
	// woolvet:atomic
	stealAttempts atomic.Int64
	// woolvet:atomic
	steals atomic.Int64
	// woolvet:atomic
	backoffs atomic.Int64
	// woolvet:atomic
	retainedSteals atomic.Int64
	// woolvet:atomic
	parks atomic.Int64
	// woolvet:atomic
	wakes atomic.Int64

	// blockedSince is the wall-clock UnixNano at which this worker
	// entered a blocked join (joinSlow slow path / leapfrog), or 0 when
	// not blocked. Cleared while the worker executes acquired work.
	// Written by the owner path, read by the pool watchdog.
	// woolvet:atomic
	blockedSince atomic.Int64

	// execing is nonzero while this worker executes a stolen task
	// (runStolen). The watchdog treats an executing, non-blocked worker
	// as evidence of progress even when every counter is quiescent — a
	// legitimately long-running stolen leaf must not trip it.
	// woolvet:atomic
	execing atomic.Int64
}

// Index returns the worker's index within its pool. Thief indices
// appear in STOLEN states and in provenance hooks.
func (w *Worker) Index() int { return w.idx }

// Pool returns the pool this worker belongs to.
func (w *Worker) Pool() *Pool { return w.pool }

// Depth returns the number of live tasks currently in this worker's
// pool (spawned and not yet joined or stolen-and-completed). Owner only.
func (w *Worker) Depth() int { return w.top - int(w.bot.Load()) }

// stealCounters batches a steal loop's failure-path counters in plain
// locals; flush writes them to the worker's atomics. The loops flush
// every 64 failed attempts, after every success, before parking and on
// exit, so a quiescent Stats() read lags by at most one batch.
type stealCounters struct {
	attempts int64
	backoffs int64
}

func (w *Worker) flushStealCounters(c *stealCounters) {
	if c.attempts != 0 {
		w.stealAttempts.Add(c.attempts)
		c.attempts = 0
	}
	if c.backoffs != 0 {
		w.backoffs.Add(c.backoffs)
		c.backoffs = 0
	}
}

// push readies the next descriptor for a spawn, handling the trip-wire
// flag and pool overflow. It returns the descriptor; the caller fills
// in arguments and publishes. On overflow it returns nil (the caller
// degrades the spawn to inline execution, see noteOverflowInlined), or
// panics under Options.StrictOverflow.
func (w *Worker) push() *Task {
	if w.morePublic.Load() {
		w.publishMore()
	}
	if w.top == len(w.tasks) {
		if w.pool.opts.StrictOverflow {
			panic(overflow.PanicMessage("core", w.idx, len(w.tasks)))
		}
		return nil
	}
	return &w.tasks[w.top]
}

// noteOverflowInlined records one overflow-degraded spawn: the caller
// already executed the child inline (the serial elision — semantically
// equivalent for fully-strict spawn/join programs) and hands us its
// result to replay at the matching join. Owner only.
func (w *Worker) noteOverflowInlined(res int64) {
	w.ovf = append(w.ovf, res)
	w.stats.OverflowInlined++
}

// spawn publishes the descriptor prepared by push. Public descriptors
// are published with an atomic store of stateTask, which is the single
// release point making fn and the arguments visible to thieves (the
// paper's "the write which makes the task stealable is the last write").
// Private descriptors just set the owner-only priv flag: no atomics at
// all on the spawn side.
//
// The public/private decision reads the owner's pubShadow, never the
// atomic publicLimit (TestSpawnUsesOwnerShadow). A public spawn that
// creates the first stealable descriptor (bot caught up to top) wakes
// one parked worker; the parked check is a single atomic load and is
// skipped entirely while anything is running.
func (w *Worker) spawn(t *Task) {
	if int64(w.top) < w.pubShadow {
		t.priv = false
		//woolvet:allow atomicfield -- publication release store: the single point making fn/args visible to thieves
		t.state.Store(stateTask)
		w.top++
		if w.idle != nil && w.idle.parked.Load() != 0 &&
			int64(w.top)-1 == w.bot.Load() {
			w.idle.wakeOne(w)
		}
	} else {
		t.priv = true
		w.top++
	}
	w.stats.Spawns++
	if w.trc != nil {
		w.trc.Record(trace.KindSpawn, int64(w.top-1), 0)
	}
}

// joinAcquire pops the top task and tries to claim it for inlining.
// It returns (task, true) when the task can be inlined — the caller
// performs the direct, task-specific call — and (task, false) when the
// slow path already ran the task (or waited out its thief) and the
// result is in the descriptor.
func (w *Worker) joinAcquire() (*Task, bool) {
	w.pollAbort()
	if n := len(w.ovf); n != 0 {
		// The youngest outstanding spawn overflow-degraded: it already
		// ran inline at the spawn point; replay its recorded result
		// through the scratch descriptor (Join paths read only t.res on
		// the non-inline path).
		w.ovfTask.res = w.ovf[n-1]
		w.ovf = w.ovf[:n-1]
		return &w.ovfTask, false
	}
	t := &w.tasks[w.top-1]
	if t.priv {
		// Private fast path: the descriptor was never visible to
		// thieves, so a plain flag flip claims it. This is the
		// paper's 3-cycle join.
		w.top--
		t.priv = false
		w.stats.JoinsInlinedPrivate++
		return t, true
	}
	if w.chs != nil {
		w.chs.Point(chaos.PointOwnerExchange)
	}
	s := t.state.Swap(stateEmpty)
	if s == stateTask {
		w.top--
		w.stats.JoinsInlinedPublic++
		w.noteInlinedPublic()
		return t, true
	}
	// Slow path: leave top unchanged until the join resolves. The
	// thief is still writing into this descriptor (STOLEN→DONE and the
	// result), and work acquired by leapfrogging below spawns at top —
	// decrementing first would let those spawns recycle the descriptor
	// under the thief.
	w.joinSlow(t, s)
	w.top--
	return t, false
}

// noteInlinedPublic implements the public→private direction of the
// revocable cut-off: after a long run of inlined public joins the owner
// is evidently not losing tasks to thieves, so future spawns above the
// current frontier are made private again. Live tasks are never made
// private (they would have to be acquired first); only the boundary for
// future spawns moves, which sidesteps the race the paper warns about.
func (w *Worker) noteInlinedPublic() {
	if !w.pool.opts.PrivateTasks {
		return
	}
	w.inlineRun++
	if w.inlineRun >= privatizeRun {
		w.inlineRun = 0
		newPL := int64(w.top + w.pool.opts.InitialPublic)
		if newPL < w.pubShadow {
			w.pubShadow = newPL
			w.publicLimit.Store(newPL)
			w.stats.Privatizations++
			if w.trc != nil {
				w.trc.Record(trace.KindPrivatize, newPL, 0)
			}
		}
	}
}

// publishMore answers a tripped wire. Two parties trip it. A thief that
// stole at the boundary of a PrivateTasks pool wants more public work:
// convert up to PublishAmount private descriptors to public and raise
// the limit. The call that poisoned the pool (Pool.tripWires) wants the
// owner off the private path: re-raise. Owner only.
//
// The flag is cleared before the poison is checked. An abort stores the
// poison and then the flag, so one that lands after the check has not
// stored its flag yet either — it survives the clear and the next spawn
// comes back here; one that lands before the check is re-raised now.
//
// The atomic store of publicLimit is the release making the state
// stores visible to thieves that load the limit; parked workers get a
// targeted wake since fresh public work just appeared.
func (w *Worker) publishMore() {
	if w.chs != nil {
		// Starve the public region: thieves keep probing while the
		// owner dawdles over the trip-wire answer.
		w.chs.Point(chaos.PointTripwirePublish)
	}
	w.morePublic.Store(false)
	w.pool.life.Rethrow()
	if !w.pool.opts.PrivateTasks {
		// No private region to publish from: every descriptor is public
		// already, and the limit (MaxInt64) plus anything wraps negative.
		return
	}
	w.inlineRun = 0
	pl := w.pubShadow
	newPL := pl + int64(w.pool.opts.PublishAmount)
	if max := int64(len(w.tasks)); newPL > max {
		newPL = max
	}
	for i := pl; i < newPL && i < int64(w.top); i++ {
		t := &w.tasks[i]
		if t.priv {
			t.priv = false
			//woolvet:allow atomicfield -- publication: the descriptor was private (thief-invisible) until the publicLimit store below
			t.state.Store(stateTask)
		}
	}
	w.pubShadow = newPL
	w.publicLimit.Store(newPL)
	w.stats.Publications++
	w.pool.progress.Add(1)
	if w.trc != nil {
		w.trc.Record(trace.KindPublish, pl, newPL)
	}
	if w.idle != nil && w.idle.parked.Load() != 0 {
		w.idle.wakeOne(w)
	}
}

// joinSlow is RTS_join from the paper: the swap in the fast path
// returned something other than TASK, so a thief is involved. s may be:
//
//   - stateEmpty: a thief is in its transient window (between CAS and
//     commit/back-off). Spin until it either restores the task (then
//     claim it with another swap) or commits STOLEN.
//   - STOLEN(i): leapfrog — steal exclusively from worker i until the
//     thief marks the task DONE.
//   - stateDone: the thief finished before we got here.
//
// On return the task's result fields are valid and bot has been pulled
// back down over the joined descriptor (the owner re-acquires implicit
// ownership of bot, per the paper's protocol).
func (w *Worker) joinSlow(t *Task, s uint64) {
	// Watchdog stamp: blockedSince is nonzero exactly while this
	// worker's innermost activity is a wait loop. Every exit path below
	// clears it (runStolen clears/restores it around acquired work).
	w.blockedSince.Store(time.Now().UnixNano())
	spins := 0
	for {
		for s == stateEmpty {
			// Transient thief window; it resolves in a handful of
			// instructions on the thief side, but yield so a
			// descheduled thief cannot livelock us on few cores.
			runtime.Gosched()
			s = t.state.Load()
			spins++
			if spins&0x3f == 0 {
				w.pool.watchdogPoll()
			}
		}
		if s != stateTask {
			break
		}
		// The thief backed off and restored the task; claim it.
		s = t.state.Swap(stateEmpty)
		if s == stateTask {
			// Deviation from the paper's pseudocode: RTS_join there
			// ends with an unconditional bot--, but a thief that backs
			// off never advanced bot, so decrementing here would push
			// bot below the live region. Only the stolen paths below
			// (where the thief did advance bot) restore it.
			w.stats.JoinsInlinedPublic++
			w.blockedSince.Store(0) // executing the claimed task, not waiting
			fn := t.fn
			fn(w, t)
			return
		}
		// Another thief snatched it between our load and swap; loop.
	}
	if isStolen(s) {
		thief := stolenThief(s)
		w.stats.JoinsStolen++
		w.leapfrog(t, thief)
	} else if s != stateDone {
		panic(fmt.Sprintf("core: corrupt task state %#x in join on worker %d", s, w.idx))
	} else {
		w.stats.JoinsStolen++
	}
	w.blockedSince.Store(0)
	w.bot.Add(-1)
}

// leapfrog waits for a stolen task to complete, stealing only from the
// thief that took it (Wagner & Calder's leapfrogging, as used by Wool).
// The restriction guarantees that anything we steal here is work we
// would have executed ourselves had the steal not happened, so the
// worker's stack cannot grow beyond its sequential bound and the buried
// join resolves as soon as the joined task is done.
//
// woolvet:thief
func (w *Worker) leapfrog(t *Task, thief int) {
	victim := w.pool.workers[thief]
	var sc stealCounters
	fails := 0
	for t.state.Load() != stateDone {
		if w.chs != nil && w.chs.Point(chaos.PointLeapfrogPick) {
			// Injected miss: skip this steal attempt, as if the thief's
			// pool looked empty.
			fails++
			if fails&0x3f == 0 {
				w.flushStealCounters(&sc)
				w.pool.watchdogPoll()
				runtime.Gosched()
			}
			continue
		}
		if w.trySteal(victim, true, &sc) {
			w.stats.LeapSteals++
			w.flushStealCounters(&sc)
			fails = 0
			// The stolen task ran nested in this join, on this stack. On
			// a poisoned pool it was skipped or may have been cut short
			// (runStolen recovered its panic), and what it spawned and
			// never joined then lies above the joiner's own descriptors:
			// the frames below must not go on joining through those.
			w.pool.life.Rethrow()
		} else {
			fails++
			if fails&0x3f == 0 {
				w.flushStealCounters(&sc)
				w.pool.watchdogPoll()
				runtime.Gosched()
			} else if runtime.GOMAXPROCS(0) == 1 {
				runtime.Gosched()
			}
		}
	}
	w.flushStealCounters(&sc)
}

// trySteal is RTS_steal from the paper. It attempts to steal the task
// at victim.bot and run it to completion on w. leap marks steals made
// from inside a blocked join (leapfrogging) so the tracer records them
// as LEAPFROG rather than STEAL events. sc batches the
// failure-path counters; the caller flushes them (flushStealCounters).
//
// Protocol, in order:
//  1. read bot; give up if it is outside the victim's public region or
//     the stack;
//  2. read state; give up unless it is TASK;
//  3. CAS state TASK→EMPTY; losing the race to another thief or the
//     owner means give up;
//  4. re-read bot: if it moved, the CAS hit a recycled descriptor (the
//     ABA the paper describes) — restore the state and back off. The
//     transient EMPTY is harmless: it only makes other thieves abort
//     and a joining owner wait;
//  5. commit: state=STOLEN(self), bot=b+1 (the thief now owns bot),
//     run the wrapper, state=DONE.
//
// woolvet:thief
func (w *Worker) trySteal(victim *Worker, leap bool, sc *stealCounters) bool {
	if victim == w {
		return false
	}
	sc.attempts++
	b := victim.bot.Load()
	if b >= victim.publicLimit.Load() || b >= int64(len(victim.tasks)) {
		return false
	}
	t := &victim.tasks[b]
	s1 := t.state.Load()
	if s1 != stateTask {
		return false
	}
	if w.chs != nil && w.chs.Point(chaos.PointThiefCAS) {
		// Injected CAS loss (and the delay above stretches the
		// read-state→CAS window the ABA guard exists for).
		return false
	}
	if !t.state.CompareAndSwap(s1, stateEmpty) {
		return false
	}
	if w.chs != nil {
		// Stretch the transient-EMPTY window between the CAS and the
		// ABA re-check that the joining owner must spin through.
		w.chs.Point(chaos.PointBotBackoff)
	}
	if victim.bot.Load() != b {
		// ABA guard: the descriptor was joined and re-spawned while we
		// were between reading bot and the CAS. Restore and back off.
		//woolvet:allow atomicfield -- back-off restore: we hold the claim won by the CAS above
		t.state.Store(s1)
		sc.backoffs++
		return false
	}
	// Trip wire: stealing at or past the wire means the public region
	// is running dry; ask the owner to publish more, and pre-wake a
	// parked worker for the work about to appear.
	if w.pool.opts.PrivateTasks &&
		b >= victim.publicLimit.Load()-int64(w.pool.opts.TripDistance) {
		victim.morePublic.Store(true)
		if w.idle != nil && w.idle.parked.Load() != 0 {
			w.idle.wakeOne(w)
		}
	}
	if w.chs != nil {
		// Hold the descriptor in its claimed-but-uncommitted state.
		w.chs.Point(chaos.PointStealCommit)
	}
	//woolvet:allow atomicfield -- STOLEN commit: we hold the claim won by the CAS above
	t.state.Store(stolenState(w.idx))
	victim.bot.Store(b + 1)
	w.steals.Add(1)
	w.pool.progress.Add(1)
	if w.trc != nil {
		k := trace.KindSteal
		if leap {
			k = trace.KindLeapfrog
		}
		w.trc.Record(k, int64(victim.idx), b)
		w.trc.Record(trace.KindTaskStart, int64(victim.idx), b)
	}
	w.runStolen(t)
	if w.trc != nil {
		w.trc.Record(trace.KindTaskEnd, int64(victim.idx), b)
	}
	//woolvet:allow atomicfield -- DONE commit: the thief owns the descriptor from CAS until this store
	t.state.Store(stateDone)
	w.pool.progress.Add(1)
	return true
}

// runStolen executes a stolen task's wrapper on this worker, converting
// a panic in user code into a pool-wide abort so the joining owner is
// not left spinning on a task that will never reach DONE.
func (w *Worker) runStolen(t *Task) {
	// Watchdog bookkeeping: while the stolen task runs this worker is
	// executing, not waiting — clear a leapfrogging caller's blocked
	// stamp for the duration (a long-running stolen leaf must read as
	// progress, not as a stuck join).
	w.execing.Add(1)
	prevBlocked := w.blockedSince.Load()
	if prevBlocked != 0 {
		w.blockedSince.Store(0)
	}
	defer func() {
		if prevBlocked != 0 {
			w.blockedSince.Store(time.Now().UnixNano())
		}
		w.execing.Add(-1)
		if r := recover(); r != nil {
			// DONE is stored by trySteal after we return; recover so
			// it executes and the victim unblocks, then the panic is
			// re-raised on the Run goroutine — at its next spawn if this
			// is the panic that poisons, the tripped wire sees to that.
			w.pool.life.Poison(r)
		}
	}()
	// Abort check: once the pool is poisoned the result of this task is
	// unobservable (the joining owner unwinds instead of reading it),
	// so skip the body. The caller still stores DONE, which is what
	// keeps a leapfrogging joiner from spinning forever on this
	// descriptor while the abort propagates.
	if !w.pool.life.Healthy() {
		return
	}
	fn := t.fn
	fn(w, t)
}

// stealableAt reports whether v's bottom descriptor currently looks
// stealable (read-only probe; the state can of course change between
// the probe and a steal attempt).
func stealableAt(v *Worker) bool {
	b := v.bot.Load()
	return b < v.publicLimit.Load() && b < int64(len(v.tasks)) &&
		v.tasks[b].state.Load() == stateTask
}

// chooseVictim asks the worker's steal policy for the next target.
func (w *Worker) chooseVictim() *Worker {
	return w.pool.workers[w.pol.Choose(w.probe)]
}

// idleLoop is the life of workers 1..N-1: steal from random victims
// until the pool shuts down. Failed attempts climb the shared back-off
// ladder (wskit.Backoff: spin, yield, naps capped at
// Options.MaxIdleSleep); once a worker has napped through the engine's
// idle budget it parks on the pool's idle engine and costs nothing
// until a producer wakes it. A negative MaxIdleSleep keeps pure
// spinning+yield and no idle engine, matching the paper's
// dedicated-machine setup.
//
// When the pool is poisoned (task panic or request abort) the loop
// stops stealing — the abandoned tree's descriptors must not keep
// executing in the background after Run has re-raised (see Pool.Run) —
// but instead of exiting it blocks on the pool's poison gate
// (poisonPark, abort.go), so Reset can revive the pool for the next
// request; Close opens the same gate for exit. A task already claimed
// by a steal always finishes (runStolen recovers and skips the body,
// trySteal commits DONE), so parking between attempts never strands a
// leapfrogging joiner.
//
// woolvet:thief
func (w *Worker) idleLoop() {
	var sc stealCounters
	bo := wskit.Backoff{Max: w.pool.opts.MaxIdleSleep}
	fails := 0
	var slept time.Duration
	for !w.pool.life.Closed() {
		if !w.pool.life.Healthy() {
			w.flushStealCounters(&sc)
			w.pool.poisonPark()
			fails = 0
			slept = 0
			continue
		}
		v := w.chooseVictim()
		if w.trySteal(v, false, &sc) {
			if w.pol.Observe(v.idx, true) {
				w.retainedSteals.Add(1)
			}
			// Wake propagation: we are about to go busy on the stolen
			// task; if the victim still has visible work and workers
			// are parked, hand one of them the scan.
			if w.idle != nil && w.idle.parked.Load() != 0 && stealableAt(v) {
				w.idle.wakeOne(w)
			}
			w.flushStealCounters(&sc)
			fails = 0
			slept = 0
			continue
		}
		w.pol.Observe(v.idx, false)
		fails++
		if fails&0x3f == 0 {
			w.flushStealCounters(&sc)
		}
		if w.chs != nil && w.idle != nil && w.chs.Force(chaos.PointParkDecision) {
			// Park-flapping: park far before the back-off ladder would,
			// forcing every unit of work to win a wake race. Safe at any
			// time — park's announce/recheck protocol covers it.
			w.flushStealCounters(&sc)
			w.idle.park(w)
			fails = 0
			slept = 0
			continue
		}
		// The park budget is charged what a nap took, not what it asked
		// for (see Backoff.Step): a Run that starts meanwhile waits out
		// the rest of the nap for its thief.
		if d := bo.Step(fails); d > 0 {
			slept += d
			if w.idle != nil && slept >= w.idle.parkAfter {
				w.flushStealCounters(&sc)
				w.idle.park(w)
				fails = 0
				slept = 0
			}
		}
	}
	w.flushStealCounters(&sc)
	w.pool.wg.Done()
}

// anyVisibleWork is the parking re-check: a read-only scan of every
// other worker for a stealable bottom descriptor.
func (w *Worker) anyVisibleWork() bool {
	for _, v := range w.pool.workers {
		if v != w && stealableAt(v) {
			return true
		}
	}
	return false
}
