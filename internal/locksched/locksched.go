// Package locksched is the lock-based work-stealing scheduler the
// paper evaluates against the direct task stack: the "Base" alternative
// of Table II and the base steal strategy of Figure 4 (Sections IV-B
// and IV-C). Figure 4's peek and trylock rungs are the simulator's
// (sim.LockStrategy).
//
// Per the paper, each worker has a lock providing mutual exclusion
// between its thieves and itself: a worker takes its own lock for join
// (but not spawn) operations, and thieves take the victim's lock to
// steal. No state word is stored in the task descriptors; whether a
// join or steal succeeds is decided by comparing the top and bot
// indices. Because bot is protected by the lock, thieves never need to
// back off.
//
// Joins that find their task stolen leapfrog, exactly as the direct
// task stack does, so the comparison isolates the synchronization cost.
package locksched

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/steal"
	"gowool/internal/trace"
	"gowool/internal/wskit"
)

// TaskFunc runs a task from its descriptor.
type TaskFunc func(w *Worker, t *Task)

// Task is a descriptor in the lock-based pool. There is no state word;
// stolen/done bookkeeping lives in separate fields because, unlike the
// direct task stack, the indices alone cannot tell a joining owner when
// its thief has finished.
type Task struct {
	// The wrapper and arguments are published to thieves by the
	// owner's atomic bump of top in spawn — the abstract word "top"
	// here: writes must dominate the spawn call and reads need
	// push/joinAcquire in scope (publication pass, DESIGN.md §15).
	// woolvet:published-by top
	fn TaskFunc
	// woolvet:published-by top
	a0, a1, a2 int64
	// woolvet:published-by top
	ctx any
	// res is written by the thief before its done release and read by
	// the owner only after it has observed done.
	// woolvet:published-by done
	res int64

	// stolenBy is the thief index + 1, written under the victim's
	// lock; 0 means not stolen.
	stolenBy int32
	// done is set by the thief when the stolen task completes — the
	// only lock-free communication in this scheduler.
	// woolvet:atomic
	done atomic.Bool
}

// Stats are core's counters, for the events this scheduler has: joins
// inline as JoinsInlinedPublic, and Backoffs stays 0 (a thief holds the
// victim's lock, so it never backs off).
type Stats = wskit.Counts

// Worker is one lock-based worker. The fields are split into
// pad-separated cache-line groups (enforced by the woolvet layoutguard
// pass) so the lock word and indices the thieves hammer never share a
// line with the owner's scheduling state or the thief-side counters.
type Worker struct {
	// woolvet:cacheline group=immutable
	pool  *Pool
	idx   int
	tasks []Task

	// trc is this worker's wooltrace ring, or nil when tracing is
	// disabled; set once in NewPool, recorded into only by the
	// goroutine driving this worker.
	trc *trace.Ring

	// chs is this worker's chaos agent, or nil when fault injection is
	// disabled; set once in NewPool, consulted only by the goroutine
	// driving this worker.
	chs *chaos.Agent

	_ [64]byte // pad: end of the immutable group

	// lock protects the join/steal index comparison and bot updates.
	// It shares a line with the indices it guards by design: a steal's
	// lock-compare-update touches a single line.
	// woolvet:cacheline group=protocol maxspan=64
	lock sync.Mutex

	// top is written by the owner (spawn does not take the lock, as in
	// the paper) and read by thieves, hence atomic.
	// woolvet:atomic
	top atomic.Int64
	// bot is written only under lock; the victim policy's probe reads
	// it without the lock, where staleness at worst wastes one choice.
	// woolvet:atomic
	bot atomic.Int64

	_ [64]byte // pad: end of the protocol group

	// pol is the victim-selection policy (internal/steal), replacing
	// the per-backend xorshift copy; probe is the read-only stealable
	// probe handed to it (a lock-free bot/top peek — staleness at worst
	// wastes one choice). Both owner-private.
	// woolvet:cacheline group=owner
	// woolvet:owner
	pol steal.Policy
	// woolvet:owner
	probe func(int) bool

	// ovf holds the results of overflow-inlined spawns, youngest last.
	// Invariant: non-empty only while top == capacity (entries are
	// created only when the pool is full, popping the stack first joins
	// these entries, and steals advance bot — never top), so joinAcquire
	// only needs a length check at its head.
	// woolvet:owner
	ovf []int64

	// ovfTask is the scratch descriptor an overflow-inlined join
	// returns; only res is meaningful on the non-inline join path.
	// woolvet:owner
	ovfTask Task

	// stats holds owner-path counters; the thief-path counters are
	// atomics because idle workers keep attempting steals with no
	// happens-before edge to a Stats() reader.
	// woolvet:owner
	stats Stats

	_ [64]byte // pad: end of the owner-private group

	// woolvet:cacheline group=counters
	// woolvet:atomic
	stealAttempts atomic.Int64
	// woolvet:atomic
	steals atomic.Int64
}

// Index returns the worker's index.
func (w *Worker) Index() int { return w.idx }

// Depth returns the number of live tasks (owner only, approximate when
// thieves are active).
func (w *Worker) Depth() int { return int(w.top.Load() - w.bot.Load()) }

// Options configures a Pool.
type Options struct {
	// Workers is the worker count; default GOMAXPROCS.
	Workers int
	// StackSize is the per-worker pool capacity; default 8192.
	StackSize int
	// MaxIdleSleep caps idle back-off sleeping; default 200µs.
	MaxIdleSleep time.Duration
	// Trace attaches a wooltrace tracer; this backend records STEAL
	// (victim, stolen bot index) and PARK (idle sleep-phase entry)
	// events. nil disables tracing at zero cost (plain nil check).
	Trace *trace.Tracer
	// Chaos attaches a woolchaos fault injector perturbing the lock
	// protocol (PointLockAcquire, PointOwnerExchange,
	// PointLeapfrogPick, PointParkDecision). nil disables injection at
	// zero cost.
	Chaos *chaos.Injector
	// Steal selects the victim policy (internal/steal). The zero
	// value is the historical behaviour: uniform random victims.
	Steal steal.Config
}

func (o Options) defaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.StackSize <= 0 {
		o.StackSize = 8192
	}
	if o.MaxIdleSleep == 0 {
		o.MaxIdleSleep = 200 * time.Microsecond
	}
	o.Steal = o.Steal.Defaults()
	return o
}

// Pool is a lock-based scheduler instance.
type Pool struct {
	opts    Options
	workers []*Worker
	life    wskit.Life
	wg      sync.WaitGroup
}

// NewPool creates the pool; worker 0 is driven by Run's caller.
//
//woolvet:allow ownerprivate -- construction: workers are unshared until the goroutines start
func NewPool(opts Options) *Pool {
	opts = opts.defaults()
	if opts.Workers > math.MaxInt32-1 {
		panic(fmt.Sprintf("locksched: Options.Workers = %d exceeds the int32 stolenBy encoding (thief index + 1)", opts.Workers))
	}
	wskit.CheckSinks("locksched", opts.Workers, opts.Trace, opts.Chaos)
	p := &Pool{opts: opts, life: wskit.Life{Name: "locksched"}}
	p.workers = make([]*Worker, opts.Workers)
	for i := range p.workers {
		w := &Worker{
			pool:  p,
			idx:   i,
			tasks: make([]Task, opts.StackSize),
			pol:   steal.New(opts.Steal, i, opts.Workers),
		}
		w.probe = func(v int) bool {
			vw := p.workers[v]
			return vw.bot.Load() < vw.top.Load()
		}
		if opts.Trace != nil {
			w.trc = opts.Trace.Ring(i)
		}
		if opts.Chaos != nil {
			w.chs = opts.Chaos.Agent(i)
		}
		p.workers[i] = w
	}
	p.wg.Add(opts.Workers - 1)
	for _, w := range p.workers[1:] {
		go w.idleLoop()
	}
	return p
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return len(p.workers) }

// Run executes root on worker 0 and returns its result.
//
// Abort semantics are the shared lifecycle's (wskit.Life, DESIGN.md
// §18): a panic in a stolen task is recovered by the thief (so every
// claimed task's done flag still publishes and joining owners unblock),
// recorded, and re-raised here; a panic in root itself poisons the pool
// on the way out. A poisoned pool rejects later Run calls with a
// distinct message; Close stays safe.
//
//woolvet:allow ownerprivate -- the calling goroutine IS worker 0's owner for the duration of Run
func (p *Pool) Run(root func(*Worker) int64) int64 {
	p.life.Begin()
	defer p.life.End()
	w := p.workers[0]
	res := root(w)
	if w.top.Load() != w.bot.Load() || len(w.ovf) != 0 {
		panic("locksched: root returned with unjoined tasks")
	}
	p.life.Rethrow()
	return res
}

// Close stops the workers.
func (p *Pool) Close() {
	if p.life.Shutdown() {
		p.wg.Wait()
	}
}

// Stats aggregates worker counters (quiescent pools only).
//
//woolvet:allow ownerprivate -- quiescent-pool accessor by contract
func (p *Pool) Stats() Stats {
	var s Stats
	for _, w := range p.workers {
		ws := w.stats
		ws.StealAttempts = w.stealAttempts.Load()
		ws.Steals = w.steals.Load()
		s.Add(&ws)
	}
	return s
}

// ResetStats zeroes the counters.
//
//woolvet:allow ownerprivate -- quiescent-pool mutator by contract
func (p *Pool) ResetStats() {
	for _, w := range p.workers {
		w.stats = Stats{}
		w.stealAttempts.Store(0)
		w.steals.Store(0)
	}
}

// push readies the next descriptor for a spawn. Returns nil when the
// pool is full and the caller must degrade the spawn to inline serial
// execution (noteOverflowInlined). The returned slot is above top and
// therefore still private to the owner — the acquire of the abstract
// top word.
//
// woolvet:acquire top
func (w *Worker) push() *Task {
	top := w.top.Load()
	if top == int64(len(w.tasks)) {
		return nil
	}
	return &w.tasks[top]
}

// noteOverflowInlined records the result of an overflow-elided spawn;
// the matching join replays it LIFO via the head check in joinAcquire.
func (w *Worker) noteOverflowInlined(res int64) {
	w.ovf = append(w.ovf, res)
	w.stats.OverflowInlined++
}

// spawn publishes the descriptor: the atomic bump of top is the release
// making the task visible to thieves. No lock, per the paper. Every
// write to the descriptor's published fields must precede this call.
//
// woolvet:release top
func (w *Worker) spawn(t *Task) {
	t.stolenBy = 0
	t.done.Store(false)
	w.top.Add(1)
	w.stats.Spawns++
}

// joinAcquire pops the youngest task. The owner takes its own lock and
// compares indices: if bot stayed at or below the popped slot the task
// is still present and is inlined; otherwise it was stolen and the
// owner leapfrogs off the recorded thief until done. Either way the
// returned descriptor is exclusively the caller's again — the locked
// index exchange or the done spin — so this acquires both words.
//
// woolvet:acquire top
// woolvet:acquire done
func (w *Worker) joinAcquire() (*Task, bool) {
	if n := len(w.ovf); n != 0 {
		// Overflow-elided spawns replay LIFO before anything on the
		// stack (they are strictly younger — the pool was full when
		// they ran). Only res is read on the non-inline join path.
		w.ovfTask.res = w.ovf[n-1]
		w.ovf = w.ovf[:n-1]
		return &w.ovfTask, false
	}
	if w.chs != nil {
		// Delay/yield only: the owner's locked exchange must complete.
		w.chs.Point(chaos.PointOwnerExchange)
	}
	w.lock.Lock()
	top := w.top.Load() - 1
	t := &w.tasks[top]
	if w.bot.Load() <= top {
		w.top.Store(top)
		w.lock.Unlock()
		w.stats.JoinsInlinedPublic++
		return t, true
	}
	// Stolen: bot passed the slot (it is top+1). Leave top alone until
	// the thief is done — it is still writing into this descriptor,
	// and work acquired by leapfrogging spawns at top, which would
	// recycle the slot under the thief. With bot == top the slot is
	// not stealable meanwhile.
	thief := int(t.stolenBy) - 1
	w.lock.Unlock()
	w.stats.JoinsStolen++

	victim := w.pool.workers[thief]
	fails := 0
	for !t.done.Load() {
		if w.chs != nil && w.chs.Point(chaos.PointLeapfrogPick) {
			fails++
			if fails&0x3f == 0 {
				runtime.Gosched()
			}
			continue
		}
		if w.trySteal(victim) {
			w.stats.LeapSteals++
			fails = 0
		} else {
			fails++
			if fails&0x3f == 0 || runtime.GOMAXPROCS(0) == 1 {
				runtime.Gosched()
			}
		}
	}
	// Retire the slot: pull top and bot back over the joined descriptor.
	w.lock.Lock()
	w.top.Store(top)
	w.bot.Store(top)
	w.lock.Unlock()
	return t, false
}

// trySteal attempts one steal from victim, running the stolen task to
// completion on w: the thief takes the victim's lock, then compares
// the indices (the paper's base strategy).
//
// woolvet:thief
func (w *Worker) trySteal(victim *Worker) bool {
	if victim == w {
		return false
	}
	w.stealAttempts.Add(1)
	if w.chs != nil && w.chs.Point(chaos.PointLockAcquire) {
		// Fail-one-attempt is safe before the lock: nothing is claimed.
		return false
	}
	victim.lock.Lock()
	bot := victim.bot.Load()
	top := victim.top.Load()
	if bot >= top {
		victim.lock.Unlock()
		return false
	}
	victim.tasks[bot].stolenBy = int32(w.idx) + 1
	victim.bot.Store(bot + 1)
	victim.lock.Unlock()

	w.steals.Add(1)
	if w.trc != nil {
		w.trc.Record(trace.KindSteal, int64(victim.idx), bot)
	}
	t := &victim.tasks[bot]
	w.runStolen(t)
	t.done.Store(true)
	return true
}

// runStolen executes one claimed task, converting a panic in user code
// into a pool-wide abort (recorded here, re-raised by Run).
func (w *Worker) runStolen(t *Task) {
	defer func() {
		if r := recover(); r != nil {
			w.pool.life.Poison(r)
		}
	}()
	fn := t.fn
	fn(w, t)
}

// idleLoop steals until shutdown — or until the pool is poisoned by a
// task panic, after which the abandoned tree's tasks must not keep
// executing in the background (claimed tasks always finish; the exit
// only happens between attempts).
//
// woolvet:thief
func (w *Worker) idleLoop() {
	bo := wskit.Backoff{Max: w.pool.opts.MaxIdleSleep}
	fails := 0
	for w.pool.life.Live() {
		v := w.pol.Choose(w.probe)
		if w.trySteal(w.pool.workers[v]) {
			w.pol.Observe(v, true)
			fails = 0
			continue
		}
		w.pol.Observe(v, false)
		fails++
		bo.StepNapOnly(fails, w.trc, w.chs)
	}
	w.pool.wg.Done()
}
