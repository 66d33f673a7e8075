package core

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

// Options configures a Pool. The zero value is usable: Defaults fills
// in every unset field.
type Options struct {
	// Workers is the number of workers (the paper's processors).
	// Defaults to runtime.GOMAXPROCS(0).
	Workers int

	// StackSize is the per-worker task-pool capacity in descriptors.
	// The direct task stack is a fixed array (no indirections, strict
	// stack discipline). A spawn that finds it full degrades to inline
	// serial execution (Stats.OverflowInlined counts them) unless
	// StrictOverflow is set. Default 8192.
	StackSize int

	// StrictOverflow makes a task-stack overflow panic (the pre-
	// degradation behaviour) instead of inlining the overflowing spawn.
	// Useful in tests and benchmarks where silent serialization would
	// mask a capacity bug.
	StrictOverflow bool

	// PrivateTasks enables the private-task optimization with the
	// trip-wire publication scheme (paper Section III-B). When false,
	// every descriptor is public and every join pays the atomic
	// exchange.
	PrivateTasks bool

	// InitialPublic is the number of public descriptors a worker
	// starts with (and the headroom kept public when the boundary is
	// pulled back down). Default 2.
	InitialPublic int

	// TripDistance: a steal within this many descriptors of the public
	// boundary trips the wire and asks the owner to publish more.
	// Default 1 (the boundary task itself).
	TripDistance int

	// PublishAmount is how many descriptors a trip-wire notification
	// publishes. Default 2.
	PublishAmount int

	// Steal selects the victim-selection policy layer (internal/steal):
	// Policy is one of steal.Policies() plus the per-policy parameters
	// (retention budget, sampling width, localized neighborhood/spill).
	// The zero value is last-victim retention over uniform random with
	// a miss budget of 1 and no sampling: after a successful steal the
	// thief returns to the same victim first (steals cluster), dropping
	// it after Steal.Retain consecutive probes that find nothing.
	// Steal.Policy = steal.Random is the paper's policy, a fresh random
	// victim per attempt; Steal.Sampling > 1 probes that many distinct
	// candidates read-only and takes the first that looks stealable.
	// Steal.Amount is accepted for registry uniformity but the direct
	// task stack only supports taking one task per steal: the
	// descriptor CAS claims exactly one bottom task.
	Steal steal.Config

	// LockOSThread pins each worker goroutine to an OS thread, which
	// removes Go-runtime migration noise on multi-core hosts. Leave it
	// off on single-core hosts: pinned spinning threads starve each
	// other between scheduler yields.
	LockOSThread bool

	// MaxIdleSleep caps the back-off sleep of idle workers. Zero means
	// the default of 200µs, which keeps idle pools cheap while
	// bounding added steal latency; negative means never sleep (pure
	// spin + yield), matching a dedicated latency-sensitive machine.
	// A non-negative MaxIdleSleep also gives a pool of two or more
	// workers an idle engine: workers that have napped through the
	// back-off ladder park on it, dropping a quiescent pool to ~0% CPU,
	// and producers wake them when work appears (see park.go).
	MaxIdleSleep time.Duration

	// Trace attaches a wooltrace event tracer: every worker records
	// SPAWN/STEAL/LEAPFROG/PUBLISH/PRIVATIZE/PARK/WAKE and stolen-task
	// spans into its per-worker ring (see internal/trace and DESIGN.md
	// §11). The tracer must have at least Workers rings. nil (the
	// default) disables tracing with zero fast-path cost: the worker's
	// ring pointer is nil and every emission site is a plain nil check
	// — no atomics (TestTraceOverheadDisabled).
	Trace *trace.Tracer

	// Chaos attaches a fault-injection injector: every worker consults
	// its per-worker agent at the named protocol points (internal/chaos,
	// DESIGN.md §12), deterministically stretching or failing the
	// windows the steal protocol must survive. The injector must have
	// at least Workers agents. nil (the default) disables injection
	// with zero fast-path cost, exactly like Trace: the worker's agent
	// pointer is nil and every hook is a plain nil check
	// (TestChaosOverheadDisabled). Never enable on production pools.
	Chaos *chaos.Injector

	// Watchdog, when positive, arms a stuck-run detector: a background
	// goroutine that trips when some worker has been continuously
	// blocked in a join for at least this interval while the pool made
	// no progress (no steals, no completions, no publications) and no
	// worker was executing stolen work. On a trip the blocked workers
	// panic with a *WatchdogError carrying a diagnostic bundle, so a
	// protocol bug or a lost-wakeup hang fails the Run loudly instead
	// of spinning forever. Zero (the default) disables it.
	Watchdog time.Duration
}

// Defaults returns o with every unset field replaced by its default.
func (o Options) Defaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.StackSize <= 0 {
		o.StackSize = 8192
	}
	if o.InitialPublic <= 0 {
		o.InitialPublic = 2
	}
	if o.TripDistance <= 0 {
		o.TripDistance = 1
	}
	if o.PublishAmount <= 0 {
		o.PublishAmount = 2
	}
	if o.Steal.Policy == "" {
		o.Steal.Policy = steal.LastVictim
	}
	o.Steal = o.Steal.Defaults()
	if o.MaxIdleSleep == 0 {
		o.MaxIdleSleep = 200 * time.Microsecond
	}
	return o
}

// initialPublicLimit is where every worker's public/private boundary
// starts, and where Reset puts it back: past every descriptor when
// private tasks are off; at InitialPublic when they are on — the
// prefix thieves can reach before the first trip-wire publication; and
// at 0 on a pool of one, which has no thief to keep a prefix for, so
// not one of its joins pays the atomic exchange.
func (o *Options) initialPublicLimit() int64 {
	switch {
	case !o.PrivateTasks:
		return math.MaxInt64
	case o.Workers == 1:
		return 0
	default:
		return int64(o.InitialPublic)
	}
}

// parkAfterFactor scales MaxIdleSleep into the cumulative back-off
// sleep an idle worker pays before parking (default 16 × 200µs ≈ 3.2ms
// of quiet), keeping parking invisible during normal run-to-run gaps.
const parkAfterFactor = 16

// privatizeRun is the number of consecutive inlined public joins after
// which the owner pulls the public boundary back down (the revocable
// cut-off, noteInlinedPublic).
const privatizeRun = 16

// Pool is a work-stealing scheduler instance: a set of workers, each
// with a direct task stack. Create one with NewPool, submit work with
// Run, release the workers with Close.
type Pool struct {
	opts    Options
	workers []*Worker
	idle    *idleEngine // nil when parking is disabled

	// life is the shared lifecycle record (wskit.Life, DESIGN.md §18):
	// closed, the single-root run claim, and the first poisoning cause
	// (task panic, watchdog trip or Abort).
	life wskit.Life
	wg   sync.WaitGroup

	// Poison parking (abort.go): instead of exiting their goroutines, a
	// poisoned pool's idle workers block on poisonGate so Reset can
	// revive them for the next request (the serving layer's per-request
	// abort, DESIGN.md §16). poisonWaiters counts workers blocked on
	// the gate; together with the idle engine's parked count it is the
	// quiescence signal Reset waits on. Both fields are guarded by
	// poisonMu, which also serializes Abort against Reset's lift of the
	// poison; the gate channel is replaced per poison episode.
	poisonMu      sync.Mutex
	poisonWaiters int
	poisonGate    chan struct{}

	// progress is the watchdog's heartbeat: bumped on slow-path
	// milestones (steal commits, stolen-task completions, trip-wire
	// publications). Deliberately never touched on the spawn/join fast
	// path — quiescence of this counter plus a blocked worker is what
	// the watchdog inspects.
	progress atomic.Int64

	// wdErr is the tripped watchdog's verdict; blocked wait loops poll
	// it (watchdogPoll) and panic with it, failing the Run.
	wdErr  atomic.Pointer[WatchdogError]
	wdStop chan struct{}
	wdDone chan struct{}
}

// NewPool creates a pool with opts.Workers workers. Worker 0 is driven
// by the goroutine that calls Run; workers 1..N-1 are goroutines that
// steal until Close.
//
//woolvet:allow ownerprivate -- construction: no worker goroutine exists yet, so every field is still unshared
func NewPool(opts Options) *Pool {
	opts = opts.Defaults()
	if uint64(opts.Workers) > maxWorkers {
		panic(fmt.Sprintf("core: Options.Workers = %d exceeds the %d the STOLEN(thief) state encoding can name (thief index is packed at state>>%d)",
			opts.Workers, maxWorkers, stolenShift))
	}
	wskit.CheckSinks("core", opts.Workers, opts.Trace, opts.Chaos)
	p := &Pool{opts: opts, life: wskit.Life{Name: "core"}}
	p.life.OnPoison = p.tripWires
	if opts.MaxIdleSleep >= 0 && opts.Workers > 1 {
		p.idle = newIdleEngine(opts.Workers, parkAfterFactor*opts.MaxIdleSleep)
	}
	p.workers = make([]*Worker, opts.Workers)
	for i := range p.workers {
		w := &Worker{
			pool:  p,
			idx:   i,
			idle:  p.idle,
			tasks: make([]Task, opts.StackSize),
			pol:   steal.New(opts.Steal, i, opts.Workers),
		}
		w.probe = func(v int) bool { return stealableAt(p.workers[v]) }
		w.genFast = opts.Trace == nil
		if opts.Trace != nil {
			w.trc = opts.Trace.Ring(i)
		}
		if opts.Chaos != nil {
			w.chs = opts.Chaos.Agent(i)
		}
		w.pubShadow = opts.initialPublicLimit()
		w.publicLimit.Store(w.pubShadow)
		p.workers[i] = w
	}
	p.wg.Add(opts.Workers - 1)
	for _, w := range p.workers[1:] {
		go func(w *Worker) {
			if p.opts.LockOSThread {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			w.idleLoop()
		}(w)
	}
	if opts.Watchdog > 0 {
		p.wdStop = make(chan struct{})
		p.wdDone = make(chan struct{})
		go p.watchdogLoop(opts.Watchdog)
	}
	return p
}

// Workers returns the number of workers in the pool.
func (p *Pool) Workers() int { return len(p.workers) }

// Run executes root on worker 0 (the calling goroutine) while the other
// workers steal, and returns root's result once it — and therefore
// every task it transitively joined — has completed. Run calls must not
// overlap; between calls the pool stays warm (idle workers keep their
// steal loops), which is exactly the repeated-kernel structure of the
// paper's benchmarks.
//
// Abort semantics: a panic anywhere in the task tree — in a stolen
// task (recovered by the thief's runStolen so the descriptor still
// reaches DONE) or in root itself — poisons the pool, which trips every
// worker's wire (tripWires), and re-raises from Run with the original
// panic value. A poisoned pool's task stacks may hold unjoined
// descriptors whose subtrees never ran, so until Reset has discarded
// them later Run calls panic with a distinct "pool poisoned by earlier
// task panic" message and the idle workers wait on the poison gate
// (they must not execute leftover descriptors of the abandoned tree);
// Close is safe either way. See DESIGN.md §11 and §16.
//
//woolvet:allow ownerprivate -- the calling goroutine IS worker 0's owner for the duration of Run
func (p *Pool) Run(root func(*Worker) int64) int64 {
	// A panic escaping root (or the unjoined-tasks check below) leaves
	// worker 0's stack with stealable descriptors of an abandoned tree:
	// End poisons the pool, tripping every wire, before it propagates.
	p.life.Begin()
	defer p.life.End()
	w := p.workers[0]
	res := root(w)
	if w.top != int(w.bot.Load()) || len(w.ovf) != 0 {
		panic(fmt.Sprintf("core: root returned with %d unjoined tasks on worker 0 (%d overflow-inlined)", w.Depth(), len(w.ovf)))
	}
	p.life.Rethrow()
	return res
}

// Close stops the idle workers and waits for them to exit. The pool
// must be quiescent (no Run in flight). Closing a poisoned pool works:
// workers waiting out the poison on the gate (poisonPark) and workers
// parked on the idle engine are both released after the shutdown flag
// is set, so they observe it and exit.
func (p *Pool) Close() {
	if !p.life.Shutdown() {
		return
	}
	if p.wdStop != nil {
		close(p.wdStop)
		<-p.wdDone
	}
	// Release poison-parked workers. Ordering: shutdown is already set,
	// so a worker that reaches poisonPark after this drain sees it under
	// poisonMu and returns without waiting (no lost wake-up).
	p.poisonMu.Lock()
	if p.poisonGate != nil {
		close(p.poisonGate)
		p.poisonGate = nil
	}
	p.poisonMu.Unlock()
	if p.idle != nil {
		p.idle.wakeAll()
	}
	p.wg.Wait()
}

// ParkedWorkers returns the number of workers currently parked on the
// pool's idle engine (0 when parking is disabled). Racy by nature; use
// it for monitoring and tests, not scheduling decisions.
func (p *Pool) ParkedWorkers() int {
	if p.idle == nil {
		return 0
	}
	return int(p.idle.parked.Load())
}

// Stats aggregates per-worker counters. Call it on a quiescent pool
// (between Run calls or after Close) for exact numbers.
func (p *Pool) Stats() Stats {
	var s Stats
	for i := range p.workers {
		ws := p.WorkerStats(i)
		s.add(&ws)
	}
	return s
}

// WorkerStats returns the counters of a single worker.
//
//woolvet:allow ownerprivate -- quiescent-pool accessor: callers read stats between Run calls (see Stats)
func (p *Pool) WorkerStats(i int) Stats {
	w := p.workers[i]
	s := w.stats
	s.StealAttempts = w.stealAttempts.Load()
	s.Steals = w.steals.Load()
	s.Backoffs = w.backoffs.Load()
	s.RetainedSteals = w.retainedSteals.Load()
	s.Parks = w.parks.Load()
	s.Wakes = w.wakes.Load()
	return s
}

// StatsSnapshot returns per-worker counters without requiring the pool
// to be quiescent, deliberately lifting the Stats/WorkerStats contract
// for live monitoring (woolrun's trace/matrix plumbing, dashboards).
// The thief-path counters are atomic loads and always coherent; the
// owner-path counters (spawns, joins, publications, ...) are plain
// fields read while their owner may be writing, so a live snapshot can
// observe slightly stale or torn values on 32-bit platforms. Use it
// for observability, never for correctness decisions; Stats() between
// Run calls remains the exact accessor. See DESIGN.md §11.
//
//woolvet:allow ownerprivate -- documented-racy live monitoring accessor; exactness is WorkerStats's contract, not ours
func (p *Pool) StatsSnapshot() []Stats {
	out := make([]Stats, len(p.workers))
	for i, w := range p.workers {
		s := w.stats
		s.StealAttempts = w.stealAttempts.Load()
		s.Steals = w.steals.Load()
		s.Backoffs = w.backoffs.Load()
		s.RetainedSteals = w.retainedSteals.Load()
		s.Parks = w.parks.Load()
		s.Wakes = w.wakes.Load()
		out[i] = s
	}
	return out
}

// ResetStats zeroes all counters (quiescent pools only).
//
//woolvet:allow ownerprivate -- quiescent-pool mutator by contract
func (p *Pool) ResetStats() {
	for _, w := range p.workers {
		w.stats = Stats{}
		w.stealAttempts.Store(0)
		w.steals.Store(0)
		w.backoffs.Store(0)
		w.retainedSteals.Store(0)
		w.parks.Store(0)
		w.wakes.Store(0)
	}
}

// Stats are the scheduler's event counters, the raw material for the
// paper's N_T (tasks spawned) and N_M (migrations = steals) and thus
// for the granularity measures G_T and G_L.
type Stats struct {
	Spawns              int64 // tasks created (N_T)
	JoinsInlinedPublic  int64 // joins that inlined a public task (atomic exchange paid)
	JoinsInlinedPrivate int64 // joins that inlined a private task (no atomics)
	JoinsStolen         int64 // joins that found their task stolen
	Steals              int64 // successful steals (N_M)
	StealAttempts       int64 // steal attempts, successful or not
	Backoffs            int64 // steals aborted by the bot re-check (ABA guard)
	LeapSteals          int64 // successful steals made while leapfrogging
	Publications        int64 // trip-wire publications
	Privatizations      int64 // public-boundary pull-downs
	RetainedSteals      int64 // successful steals from the retained victim (Steal.Retain hits)
	Parks               int64 // times a worker parked on the idle engine
	Wakes               int64 // targeted wakes this worker issued to parked peers
	OverflowInlined     int64 // spawns degraded to inline execution on task-stack overflow
}

func (s *Stats) add(o *Stats) {
	s.Spawns += o.Spawns
	s.JoinsInlinedPublic += o.JoinsInlinedPublic
	s.JoinsInlinedPrivate += o.JoinsInlinedPrivate
	s.JoinsStolen += o.JoinsStolen
	s.Steals += o.Steals
	s.StealAttempts += o.StealAttempts
	s.Backoffs += o.Backoffs
	s.LeapSteals += o.LeapSteals
	s.Publications += o.Publications
	s.Privatizations += o.Privatizations
	s.RetainedSteals += o.RetainedSteals
	s.Parks += o.Parks
	s.Wakes += o.Wakes
	s.OverflowInlined += o.OverflowInlined
}

// Joins returns the total number of joins.
func (s Stats) Joins() int64 {
	return s.JoinsInlinedPublic + s.JoinsInlinedPrivate + s.JoinsStolen
}
