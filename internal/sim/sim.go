// Package sim executes the paper's work-stealing schedulers on the
// deterministic virtual-time multiprocessor of internal/vtime, with
// per-operation costs from internal/costmodel. It is the stand-in for
// the paper's 8-core Opteron (this reproduction's host has two CPUs,
// DESIGN.md §2): speedup curves, steal counts, granularity tables and
// time breakdowns for 1..64 processors all come out of this package,
// bit-identical across runs.
//
// It is one machine with two steal orders. Under steal-child (Run, the
// four Kinds) a spawn pushes the child and thieves take it; under
// steal-parent (RunCilkSim, true Cilk order) a spawn runs the child
// and thieves take the parent's continuation. Both orders share the
// workers, victim choice, back-off ladder, lock model and steal
// charge.
//
// The scheduling protocols execute for real — per-worker task stacks,
// bottom-up stealing, trip-wired private tasks, leapfrogging,
// lock-held windows — but synchronization primitives are modelled:
// the vtime token makes each claim atomic, a victim's lock is a
// "locked until" timestamp that contending processors wait out, and
// cache-coherence traffic appears as a penalty for stealing from a
// recently-robbed victim.
//
// The event counters (Stats) are wskit.Counts, the fields core counts
// natively, so at one processor the two implementations of the
// protocol are cross-checked field by field against each other.
package sim

import (
	"fmt"

	"gowool/internal/costmodel"
	"gowool/internal/steal"
	"gowool/internal/vtime"
	"gowool/internal/wskit"
)

// Kind selects the scheduler protocol.
type Kind int

// Scheduler kinds.
const (
	// KindDirectStack is the paper's contribution: synchronization on
	// the task descriptor, task-specific joins, optional private
	// tasks, leapfrogging (Wool).
	KindDirectStack Kind = iota
	// KindDeque is the TBB-like steal-child scheduler: index-based
	// synchronization costs, free-listed tasks, and unrestricted
	// stealing while a join is blocked.
	KindDeque
	// KindLock is the lock-ladder of Figure 4: per-worker locks taken
	// by thieves (strategy base/peek/trylock) and by the victim's own
	// joins.
	KindLock
	// KindCentral is the OpenMP-like scheduler: every task goes
	// through one central, lock-protected queue; a blocked join helps
	// by running queued tasks.
	KindCentral
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindDirectStack:
		return "direct-stack"
	case KindDeque:
		return "deque"
	case KindLock:
		return "lock"
	case KindCentral:
		return "central"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// LockStrategy is the Figure 4 thief strategy for KindLock.
type LockStrategy int

// Lock strategies.
const (
	LockBase LockStrategy = iota
	LockPeek
	LockTryLock
)

// String names the strategy as in Figure 4.
func (s LockStrategy) String() string {
	switch s {
	case LockBase:
		return "base"
	case LockPeek:
		return "peek"
	case LockTryLock:
		return "trylock"
	default:
		return fmt.Sprintf("LockStrategy(%d)", int(s))
	}
}

// Config parameterizes one simulated machine.
type Config struct {
	// Procs is the number of virtual processors.
	Procs int
	// Costs is the per-operation cycle cost profile.
	Costs costmodel.Profile
	// Kind selects the protocol; LockStrategy applies to KindLock.
	Kind         Kind
	LockStrategy LockStrategy

	// PrivateTasks enables the trip-wired private-task scheme
	// (KindDirectStack only).
	PrivateTasks  bool
	InitialPublic int // default 2
	TripDistance  int // default 1
	PublishAmount int // default 2

	// StackSize is the per-worker task pool capacity; default 8192,
	// the native pool's (core.Options.StackSize). A spawn that finds
	// the pool full degrades to inline serial execution (counted in
	// Stats.OverflowInlined).
	StackSize int

	// Seed drives victim selection; same seed ⇒ identical run.
	Seed uint64

	// Steal selects the victim policy (internal/steal). The zero value
	// is the uniform-random policy with RNG streams derived from Seed —
	// bit-identical to the pre-policy simulator. Steal.Seed, when left
	// zero, inherits Seed.
	Steal steal.Config

	// Topology is the sharded-machine model; the zero value is a flat
	// machine (no distance penalties).
	Topology Topology

	// IdleBackoffCap bounds the exponential back-off (in cycles) of
	// idle and blocked workers between failed steal probes. The
	// paper's dedicated machine polls continuously; small caps model
	// that faithfully at the price of more simulation steps. Default
	// 1024 cycles.
	IdleBackoffCap uint64

	// TrackSpan records work and critical path during the run (use
	// with Procs == 1).
	TrackSpan bool
}

func (c Config) defaults() Config {
	if c.Procs <= 0 {
		c.Procs = 1
	}
	if c.InitialPublic <= 0 {
		c.InitialPublic = 2
	}
	if c.TripDistance <= 0 {
		c.TripDistance = 1
	}
	if c.PublishAmount <= 0 {
		c.PublishAmount = 2
	}
	if c.StackSize <= 0 {
		c.StackSize = 8192
	}
	if c.Seed == 0 {
		c.Seed = 0x9e3779b97f4a7c15
	}
	if c.Steal.Seed == 0 {
		// WorkerSeed(Seed, i) then reproduces the pre-policy per-worker
		// streams Seed + i*0x2545f4914f6cdd1d + 1 bit for bit.
		c.Steal.Seed = c.Seed
	}
	if c.IdleBackoffCap == 0 {
		c.IdleBackoffCap = 1024
	}
	return c
}

// Topology models a sharded machine — NUMA nodes or sockets — by
// making steal traffic pay for distance. The Procs workers are split
// into Shards contiguous shards (worker i lands in shard i*Shards/P),
// and every cross-shard probe or steal costs extra cycles per shard
// hop on a linear interconnect: a failed probe pays
// costmodel.RemoteProbePenalty×hops on top of the profile's StealProbe
// (reading a remote worker's indices misses to another node's cache),
// and a successful steal pays costmodel.RemoteStealPenalty×hops on top
// of StealWork (the descriptor's cache lines cross the interconnect).
// The zero value is a flat machine.
type Topology struct {
	Shards int
}

// Hops returns the interconnect distance between workers a and b of an
// n-worker machine: the shard-index difference, 0 on a flat machine.
func (t Topology) Hops(a, b, n int) uint64 {
	if t.Shards <= 1 || n <= 0 {
		return 0
	}
	sa, sb := a*t.Shards/n, b*t.Shards/n
	if sa >= sb {
		return uint64(sa - sb)
	}
	return uint64(sb - sa)
}

// args are a task descriptor's payload: three integer slots and a
// context pointer, the widest task shape of the native schedulers
// (sched.TaskC3).
type args struct {
	a0, a1, a2 int64
	ctx        any
}

// taskFn is a descriptor's task function: a Define* body reading its
// arguments out of the payload.
type taskFn func(w *W, a args) int64

// Root is a simulated run's root task. It runs on processor 0, and its
// result is the run's Value.
type Root func(w *W) int64

// Reps returns a root that runs region reps times in sequence, passing
// the repetition's index, and sums the results: the serialized
// parallel regions of the paper's repeated-kernel measurements.
func Reps(reps int64, region func(w *W, r int64) int64) Root {
	return func(w *W) int64 {
		var total int64
		for r := range reps {
			total += region(w, r)
		}
		return total
	}
}

// TaskDef1 is a task in the native schedulers' one-argument shape
// (sched.Task1[*W]): sched.BuildRec instantiates a RecJob on the
// simulator through Define1.
type TaskDef1 struct {
	task taskFn
	fn   func(*W, int64) int64
}

// Define1 is the simulator's Define1-style constructor, the
// counterpart of core.Define1. The name keeps core's signature; the
// simulator does not use it.
func Define1(_ string, fn func(*W, int64) int64) *TaskDef1 {
	return &TaskDef1{fn: fn, task: func(w *W, a args) int64 { return fn(w, a.a0) }}
}

// Spawn pushes a task on w's pool.
func (d *TaskDef1) Spawn(w *W, a0 int64) { w.spawn(d.task, args{a0: a0}) }

// Call invokes the task function directly.
func (d *TaskDef1) Call(w *W, a0 int64) int64 { return d.fn(w, a0) }

// Join joins the youngest spawned task.
func (d *TaskDef1) Join(w *W) int64 { return w.Join() }

// TaskDef2 is a task in the native schedulers' two-argument shape
// (sched.Task2[*W]): sched.BuildRange instantiates a RangeJob on the
// simulator through Define2.
type TaskDef2 struct {
	task taskFn
	fn   func(*W, int64, int64) int64
}

// Define2 is the simulator's Define2-style constructor, the
// counterpart of core.Define2. The name keeps core's signature; the
// simulator does not use it.
func Define2(_ string, fn func(*W, int64, int64) int64) *TaskDef2 {
	return &TaskDef2{fn: fn, task: func(w *W, a args) int64 { return fn(w, a.a0, a.a1) }}
}

// Spawn pushes a task on w's pool.
func (d *TaskDef2) Spawn(w *W, a0, a1 int64) { w.spawn(d.task, args{a0: a0, a1: a1}) }

// Call invokes the task function directly.
func (d *TaskDef2) Call(w *W, a0, a1 int64) int64 { return d.fn(w, a0, a1) }

// Join joins the youngest spawned task.
func (d *TaskDef2) Join(w *W) int64 { return w.Join() }

// TaskDefC3 is a task in the native schedulers' three-argument,
// context-carrying shape (sched.TaskC3[*W, C]): a body written once
// against that shape runs on the simulator through DefineC3.
type TaskDefC3[C any] struct {
	task taskFn
	fn   func(*W, *C, int64, int64, int64) int64
}

// DefineC3 is the simulator's DefineC3-style constructor, the
// counterpart of core.DefineC3. The name keeps core's signature; the
// simulator does not use it.
func DefineC3[C any](_ string, fn func(*W, *C, int64, int64, int64) int64) *TaskDefC3[C] {
	return &TaskDefC3[C]{fn: fn, task: func(w *W, a args) int64 { return fn(w, a.ctx.(*C), a.a0, a.a1, a.a2) }}
}

// Spawn pushes a task on w's pool.
func (d *TaskDefC3[C]) Spawn(w *W, c *C, a0, a1, a2 int64) {
	w.spawn(d.task, args{a0: a0, a1: a1, a2: a2, ctx: c})
}

// Call invokes the task function directly.
func (d *TaskDefC3[C]) Call(w *W, c *C, a0, a1, a2 int64) int64 { return d.fn(w, c, a0, a1, a2) }

// Join joins the youngest spawned task.
func (d *TaskDefC3[C]) Join(w *W) int64 { return w.Join() }

// Task states.
const (
	sEmpty uint8 = iota
	sTask
	sStolen
	sDone
)

// STask is a simulated task descriptor.
type STask struct {
	state uint8
	priv  bool
	thief int32
	fn    taskFn
	args  args
	res   int64
}

// Execution modes, for attributing application time (Figure 6).
const (
	modeNA = iota // root / idle-steal acquired application code
	modeLA        // leapfrog-acquired application code
)

// Stats are one worker's (or the whole machine's) counters: the shared
// events (wskit.Counts) plus what only a virtual-time machine has, lock
// waits and the virtual-cycle time breakdown. Backoffs, RetainedSteals,
// Parks and Wakes stay zero: a simulated steal is one step, so the bot
// re-check never aborts one, processors do not park, and the simulator
// does not count its last-victim hits.
type Stats struct {
	wskit.Counts
	LockWaits int64 // cycles lost waiting for locks are in ST/LF; this counts events

	// Figure 6 categories, in cycles: stealing (ST), leapfrogging
	// search (LF), application+overhead acquired normally (NA) or by
	// leapfrogging (LA).
	ST, LF, NA, LA uint64
}

func (s *Stats) add(o *Stats) {
	s.Counts.Add(&o.Counts)
	s.LockWaits += o.LockWaits
	s.ST += o.ST
	s.LF += o.LF
	s.NA += o.NA
	s.LA += o.LA
}

// W is one simulated worker. Under the steal-child order (Run) its
// pool is the descriptor stack tasks[bot:top]; under the steal-parent
// order (RunCilkSim) it is the continuation deque.
type W struct {
	m *Machine
	p *vtime.Proc

	tasks       []STask
	top, bot    int
	publicLimit int
	morePublic  bool
	inlineRun   int

	// ovf holds the results of overflow-inlined spawns, youngest last.
	// Non-empty only while top == StackSize (entries are created only
	// when the pool is full, and joins drain them before touching the
	// stack), so Join only needs a length check at its head.
	ovf []int64

	// deque holds the steal-parent worker's ready continuations,
	// oldest first.
	deque []CStep

	lockUntil uint64 // victim-lock model (KindLock, the steal-parent deque)
	lastSteal uint64 // time of the last successful steal from this worker (coherence model)

	idx  int
	pol  steal.Policy
	mode int

	// stealsFrom[v] counts successful claims from victim v — the
	// thief's row of the run's steal matrix.
	stealsFrom []int64

	St Stats
}

// Work advances this worker's clock by cycles of application work,
// charging the current Figure 6 category and the span strand.
func (w *W) Work(cycles uint64) {
	w.chargeApp(cycles)
	if w.m.span != nil {
		w.m.span.strand += cycles
	}
	w.p.Step(cycles)
}

// chargeApp attributes cycles to NA or LA.
func (w *W) chargeApp(cycles uint64) {
	if w.mode == modeLA {
		w.St.LA += cycles
	} else {
		w.St.NA += cycles
	}
}

// Machine is one simulated scheduler instance.
type Machine struct {
	cfg Config
	vm  *vtime.Machine
	ws  []*W

	// parent selects the steal-parent order: thieves take a parent's
	// continuation instead of a spawned child.
	parent bool

	central          []*STask // KindCentral shared queue
	centralLockUntil uint64
	lastAnySteal     uint64 // global steal-traffic timestamp (coherence model)

	span *spanTracker

	result   int64
	makespan uint64
	maxDeque int
}

// Result is everything one simulated run produces.
type Result struct {
	Value    int64
	Makespan uint64   // virtual cycles until the root completed
	Times    []uint64 // final clock of every processor
	Total    Stats    // aggregated counters
	Workers  []Stats  // per-worker counters

	// StealsFrom[thief][victim] counts successful claims — the steal
	// matrix (central-queue pops have no victim and are not counted).
	StealsFrom [][]int64

	// Span data (TrackSpan runs): total work, critical path in the
	// abstract (O=0) and realistic (O=spanOverhead) models.
	Work, Span0, SpanO uint64

	// MaxDeque is the high-water mark of ready continuations on any
	// single worker of a steal-parent run — its space guarantee, made
	// observable (the paper's Section I-a: Cilk's constant-space spawn
	// loop).
	MaxDeque int
}

// newMachine builds a machine for cfg, in the steal-parent order when
// parent is set. A steal-parent machine has no descriptor stacks.
func newMachine(cfg Config, parent bool) *Machine {
	cfg = cfg.defaults()
	m := &Machine{cfg: cfg, vm: vtime.NewMachine(cfg.Procs), parent: parent}
	m.ws = make([]*W, cfg.Procs)
	for i := range m.ws {
		w := &W{
			m:           m,
			idx:         i,
			publicLimit: int(^uint(0) >> 1),
			pol:         steal.New(cfg.Steal, i, cfg.Procs),
			stealsFrom:  make([]int64, cfg.Procs),
		}
		if !parent {
			w.tasks = make([]STask, cfg.StackSize)
		}
		if cfg.PrivateTasks && cfg.Kind == KindDirectStack {
			w.publicLimit = cfg.InitialPublic
		}
		m.ws[i] = w
	}
	if cfg.TrackSpan {
		if cfg.Procs != 1 {
			panic("sim: TrackSpan requires Procs == 1")
		}
		m.span = &spanTracker{}
	}
	return m
}

// Run executes root to completion under the steal-child order of
// cfg.Kind and returns the run's Result.
func Run(cfg Config, root Root) Result {
	m := newMachine(cfg, false)
	return m.run(func(w *W) {
		if m.span != nil {
			m.span.begin()
		}
		m.result = root(w)
		if w.top != w.bot || len(w.ovf) != 0 {
			panic("sim: root returned with unjoined tasks")
		}
		m.makespan = w.p.Now()
		m.vm.SetStop()
		if m.span != nil {
			m.span.end(w)
		}
	})
}

// run starts root on processor 0, lets every processor steal until the
// root raises the machine's stop flag, and gathers the Result.
func (m *Machine) run(root func(w *W)) Result {
	times := m.vm.Run(func(p *vtime.Proc) {
		w := m.ws[p.ID()]
		w.p = p
		if p.ID() == 0 {
			root(w)
		}
		w.idleLoop()
	})
	res := Result{
		Value:      m.result,
		Makespan:   m.makespan,
		Times:      times,
		Workers:    make([]Stats, len(m.ws)),
		StealsFrom: make([][]int64, len(m.ws)),
		MaxDeque:   m.maxDeque,
	}
	for i, w := range m.ws {
		res.Workers[i] = w.St
		res.Total.add(&w.St)
		res.StealsFrom[i] = w.stealsFrom
	}
	if m.span != nil {
		res.Work = m.span.work
		res.Span0 = m.span.span0
		res.SpanO = m.span.spanO
	}
	return res
}

// idleLoop looks for work until the root completes.
func (w *W) idleLoop() {
	w.poll(w.m.vm.Stopped, w.findWork, &w.St.ST)
}

// findWork is one try of an idle worker: a steal-parent worker first
// resumes its own youngest continuation; then it steals.
func (w *W) findWork() bool {
	if w.m.parent {
		if s := w.popBottom(); s != nil {
			w.runChain(s)
			return true
		}
	}
	return w.stealAny(modeNA)
}

// firstBackoff is where the back-off ladder starts, and where every
// successful try puts it back.
const firstBackoff = 16

// poll is the back-off ladder of a worker that waits for work: of the
// idle loop and of a blocked join. It calls try until done, and after
// each failed try it waits out the back-off, charged to *wait, which
// doubles up to Config.IdleBackoffCap.
func (w *W) poll(done, try func() bool, wait *uint64) {
	backoff := uint64(firstBackoff)
	for !done() {
		if try() {
			backoff = firstBackoff
			continue
		}
		*wait += backoff
		w.p.Step(backoff)
		if backoff < w.m.cfg.IdleBackoffCap {
			backoff *= 2
		}
	}
}
