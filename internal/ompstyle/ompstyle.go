// Package ompstyle is a task scheduler shaped like the icc OpenMP 3.0
// runtime the paper compares against: tasks are closures routed
// through a central, lock-protected pool shared by the thread team,
// and loop parallelism uses work-sharing (ParallelFor) rather than
// task recursion — exactly how the paper's mm and ssf OpenMP versions
// are written.
//
// The structural costs this baseline reproduces: every task is a heap
// allocation (closure + descriptor), every submission and retrieval
// crosses one global lock, and a taskwait helps by executing arbitrary
// queued tasks (OpenMP's untied-task behaviour), with the attendant
// contention when many fine-grained tasks hit the pool at once.
package ompstyle

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/trace"
	"gowool/internal/wskit"
)

// Task is a queued task: a closure plus the parent link used by
// Taskwait's completion counting.
type Task struct {
	fn     func(*Context)
	parent *Task
	// children counts outstanding child tasks (spawned minus completed).
	// woolvet:atomic
	children atomic.Int64
}

// Context is the execution context of a task (or the master function):
// the handle through which the body spawns tasks, waits, and runs
// parallel loops. wi is the team-member index executing the task
// (master is 0), used to route trace events to the right ring.
type Context struct {
	pool *Pool
	cur  *Task
	wi   int
}

// Stats are the scheduler's event counters. A central pool has no
// steals and no deque joins, so of the shared counts only Spawns
// moves; the queue traffic is counted beside it.
type Stats struct {
	wskit.Counts
	Executed   int64
	WaitLoops  int64 // Taskwait help-iterations that found nothing to run
	ChunksRun  int64 // ParallelFor chunks executed
	MaxQueued  int64 // high-water mark of the central queue
	LockPasses int64 // queue lock acquisitions
}

// Pool is an OpenMP-style thread team with a central task pool. The
// central lock contention is the point of this baseline, but the stats
// counters are kept a cache line away from the queue (enforced by the
// woolvet layoutguard pass) so counter traffic does not add incidental
// invalidations on top of the modelled cost.
type Pool struct {
	opts Options
	// rings holds one trace ring per team member (nil when tracing is
	// off). Set once at construction, read-only afterwards.
	rings []*trace.Ring
	// agents holds one chaos agent per team member (nil when fault
	// injection is off). Set once at construction, read-only afterwards;
	// each agent is consulted only by its member's goroutine.
	agents []*chaos.Agent

	// woolvet:cacheline group=queue
	mu sync.Mutex
	// The central queue is the whole team's shared state; every access
	// must hold mu (publication pass, mutex word).
	// woolvet:published-by mu
	queue []*Task

	_ [64]byte // pad: end of the central-queue group

	// woolvet:cacheline group=counters
	// woolvet:atomic
	spawns atomic.Int64
	// woolvet:atomic
	executed atomic.Int64
	// woolvet:atomic
	waitLoops atomic.Int64
	// woolvet:atomic
	chunksRun atomic.Int64
	// woolvet:atomic
	maxQueued atomic.Int64
	// woolvet:atomic
	lockPasses atomic.Int64

	// life is the shared lifecycle record (wskit.Life): a panicking
	// task body poisons the pool (the task tree it abandons may be
	// incomplete); Run re-raises the value and later Runs fail fast.
	life wskit.Life
	wg   sync.WaitGroup
}

// ring returns team member wi's trace ring, or nil when tracing is off.
func (p *Pool) ring(wi int) *trace.Ring {
	if p.rings == nil {
		return nil
	}
	return p.rings[wi]
}

// agent returns team member wi's chaos agent, or nil when injection is
// off.
func (p *Pool) agent(wi int) *chaos.Agent {
	if p.agents == nil {
		return nil
	}
	return p.agents[wi]
}

// Options configures a Pool.
type Options struct {
	// Workers is the team size; default GOMAXPROCS.
	Workers int
	// QueueSize is the initial capacity of the central task queue. The
	// queue grows on demand — there is no overflow to degrade — making
	// this a pre-allocation hint only.
	QueueSize int
	// MaxIdleSleep caps idle back-off sleeping; default 200µs.
	MaxIdleSleep time.Duration
	// Trace, when non-nil, records scheduler events into per-member
	// rings. This backend emits STEAL with victim -1 (a take from the
	// central queue — there is no per-worker victim) and PARK (an idle
	// member entered its sleep phase). The tracer must have at least
	// Workers rings.
	Trace *trace.Tracer
	// Chaos attaches a woolchaos fault injector perturbing the central
	// queue protocol (PointQueueTake, PointParkDecision). nil disables
	// injection at zero cost.
	Chaos *chaos.Injector
}

func (o Options) defaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxIdleSleep == 0 {
		o.MaxIdleSleep = 200 * time.Microsecond
	}
	return o
}

// NewPool creates the team; the master is the goroutine calling Run.
func NewPool(opts Options) *Pool {
	opts = opts.defaults()
	wskit.CheckSinks("ompstyle", opts.Workers, opts.Trace, opts.Chaos)
	p := &Pool{opts: opts, life: wskit.Life{Name: "ompstyle"}}
	if opts.QueueSize > 0 {
		p.queue = make([]*Task, 0, opts.QueueSize)
	}
	if opts.Trace != nil {
		p.rings = make([]*trace.Ring, opts.Workers)
		for i := range p.rings {
			p.rings[i] = opts.Trace.Ring(i)
		}
	}
	if opts.Chaos != nil {
		p.agents = make([]*chaos.Agent, opts.Workers)
		for i := range p.agents {
			p.agents[i] = opts.Chaos.Agent(i)
		}
	}
	p.wg.Add(opts.Workers - 1)
	for i := 1; i < opts.Workers; i++ {
		go p.workerLoop(i)
	}
	return p
}

// Workers returns the team size.
func (p *Pool) Workers() int { return p.opts.Workers }

// Run executes master with a root context and returns its result after
// all transitively spawned tasks have completed.
//
// Abort semantics: a panic in any task body poisons the pool; Run
// re-raises the first panic value after its implicit barrier, and
// every later Run fails fast with a distinct poisoned message. Close
// remains safe on a poisoned pool.
func (p *Pool) Run(master func(*Context) int64) int64 {
	p.life.Begin()
	defer p.life.End()
	root := &Task{}
	tc := &Context{pool: p, cur: root, wi: 0}
	res := master(tc)
	tc.Taskwait() // implicit barrier: no task escapes the run
	p.life.Rethrow()
	return res
}

// Close stops the team.
func (p *Pool) Close() {
	if p.life.Shutdown() {
		p.wg.Wait()
	}
}

// Stats returns aggregate counters (quiescent pools only).
func (p *Pool) Stats() Stats {
	return Stats{
		Counts:     wskit.Counts{Spawns: p.spawns.Load()},
		Executed:   p.executed.Load(),
		WaitLoops:  p.waitLoops.Load(),
		ChunksRun:  p.chunksRun.Load(),
		MaxQueued:  p.maxQueued.Load(),
		LockPasses: p.lockPasses.Load(),
	}
}

// ResetStats zeroes the counters.
func (p *Pool) ResetStats() {
	p.spawns.Store(0)
	p.executed.Store(0)
	p.waitLoops.Store(0)
	p.chunksRun.Store(0)
	p.maxQueued.Store(0)
	p.lockPasses.Store(0)
}

// push queues t centrally (LIFO end; OpenMP runtimes favour newest
// tasks for locality).
func (p *Pool) push(t *Task) {
	p.mu.Lock()
	p.lockPasses.Add(1)
	p.queue = append(p.queue, t)
	if n := int64(len(p.queue)); n > p.maxQueued.Load() {
		p.maxQueued.Store(n)
	}
	p.mu.Unlock()
}

// tryPop takes the newest queued task, or nil.
func (p *Pool) tryPop() *Task {
	p.mu.Lock()
	p.lockPasses.Add(1)
	n := len(p.queue)
	if n == 0 {
		p.mu.Unlock()
		return nil
	}
	t := p.queue[n-1]
	p.queue[n-1] = nil
	p.queue = p.queue[:n-1]
	p.mu.Unlock()
	return t
}

// execute runs t on team member wi and performs completion accounting.
// The accounting sits in a recovering defer: a panicking task body
// poisons the pool, but its parent's children count must still
// decrement or every ancestor's Taskwait would spin forever (the
// master's implicit barrier included — Run could never re-raise).
func (p *Pool) execute(t *Task, wi int) {
	tc := &Context{pool: p, cur: t, wi: wi}
	defer func() {
		if r := recover(); r != nil {
			p.life.Poison(r)
		}
		p.executed.Add(1)
		if t.parent != nil {
			t.parent.children.Add(-1)
		}
	}()
	t.fn(tc)
	// A task is complete only when its own children are: OpenMP's
	// implicit end-of-task region does not wait, but completion
	// accounting toward the parent's taskwait must. Help until quiet.
	tc.Taskwait()
}

// SpawnTask submits fn as a child task of the current context.
func (tc *Context) SpawnTask(fn func(*Context)) {
	t := &Task{fn: fn, parent: tc.cur}
	tc.cur.children.Add(1)
	tc.pool.spawns.Add(1)
	tc.pool.push(t)
}

// Taskwait blocks until all child tasks of the current context have
// completed, helping by executing queued tasks meanwhile (untied-task
// semantics: any queued task may run here).
func (tc *Context) Taskwait() {
	p := tc.pool
	fails := 0
	for tc.cur.children.Load() > 0 {
		if a := p.agent(tc.wi); a != nil && a.Point(chaos.PointQueueTake) {
			// Fail-one-attempt: treat the queue as momentarily empty.
			fails++
			continue
		}
		if t := p.tryPop(); t != nil {
			if r := p.ring(tc.wi); r != nil {
				r.Record(trace.KindSteal, -1, 0)
			}
			p.execute(t, tc.wi)
			fails = 0
			continue
		}
		p.waitLoops.Add(1)
		fails++
		if fails&0xf == 0 || runtime.GOMAXPROCS(0) == 1 {
			runtime.Gosched()
		}
	}
}

// Schedule selects the ParallelFor distribution, mirroring OpenMP's
// schedule(static) and schedule(dynamic, chunk).
type Schedule int

// Schedules.
const (
	Static Schedule = iota
	Dynamic
)

// ParallelFor runs body(i) for i in [lo, hi) across the team: the
// work-sharing construct the paper's OpenMP mm and ssf use instead of
// task recursion. Static cuts the range into one chunk per team
// member; Dynamic cuts it into chunks of the given size handed out
// through the central pool.
//
// Nested regions must nest through task contexts: call ParallelFor on
// the *Context the enclosing task received, never on an ancestor's —
// waiting on an ancestor's children from inside one of them would
// wait for itself.
func (tc *Context) ParallelFor(lo, hi int64, sched Schedule, chunk int64, body func(i int64)) {
	if hi <= lo {
		return
	}
	n := hi - lo
	switch sched {
	case Static:
		team := int64(tc.pool.opts.Workers)
		per := (n + team - 1) / team
		for c := int64(0); c < team; c++ {
			cl, ch := lo+c*per, lo+(c+1)*per
			if cl >= hi {
				break
			}
			if ch > hi {
				ch = hi
			}
			tc.spawnChunk(cl, ch, body)
		}
	case Dynamic:
		if chunk <= 0 {
			chunk = 1
		}
		for cl := lo; cl < hi; cl += chunk {
			ch := cl + chunk
			if ch > hi {
				ch = hi
			}
			tc.spawnChunk(cl, ch, body)
		}
	}
	tc.Taskwait()
}

func (tc *Context) spawnChunk(lo, hi int64, body func(i int64)) {
	tc.SpawnTask(func(tc2 *Context) {
		for i := lo; i < hi; i++ {
			body(i)
		}
		tc2.pool.chunksRun.Add(1)
	})
}

// workerLoop is the life of team member wi (1..N-1). It also exits on
// poison: a claimed task always completes its accounting (execute
// recovers), so exiting between takes never strands a taskwait.
func (p *Pool) workerLoop(wi int) {
	bo := wskit.Backoff{Max: p.opts.MaxIdleSleep}
	fails := 0
	for p.life.Live() {
		if a := p.agent(wi); a != nil && a.Point(chaos.PointQueueTake) {
			// Fail-one-attempt: treat the queue as momentarily empty.
			fails++
			continue
		}
		if t := p.tryPop(); t != nil {
			if r := p.ring(wi); r != nil {
				r.Record(trace.KindSteal, -1, 0)
			}
			p.execute(t, wi)
			fails = 0
			continue
		}
		fails++
		bo.StepNapOnly(fails, p.ring(wi), p.agent(wi))
	}
	p.wg.Done()
}
