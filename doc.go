// Package gowool is a work-stealing scheduler for fine-grained nested
// task parallelism, a Go implementation of the direct task stack from
// Karl-Filip Faxén, "Efficient Work Stealing for Fine Grained
// Parallelism" (ICPP 2010) — the algorithm behind the Wool C library.
//
// The design goal is that spawning a task costs barely more than a
// procedure call, so programs can expose all their parallelism without
// manual granularity control (cut-offs). The ingredients:
//
//   - Task descriptors live inline in a per-worker array with strict
//     stack discipline: no pointers, no free lists, no allocation on
//     the spawn path.
//   - Thief and victim synchronize on the descriptor's state word (the
//     owner with an atomic exchange, thieves with CAS), not on the
//     stack indices, so the owner's top index stays private and a steal
//     transfers a single contiguous block.
//   - Private tasks defer even that synchronization: descriptors above
//     a dynamic public boundary are joined with plain loads and stores,
//     and thieves trip a wire to ask for more public tasks when the
//     boundary runs dry — a revocable, automatic cut-off.
//   - A join whose task was stolen leapfrogs: it steals back only from
//     the thief, bounding stack growth to the sequential depth and
//     avoiding the buried-join problem.
//
// # Usage
//
// Tasks are declared once with Define1..Define4 (int64 arguments) or
// DefineC1/DefineC2 (typed context pointer + int64s), then spawned and
// joined through a Worker. The canonical example, the paper's Figure 2:
//
//	var fib *gowool.TaskDef1
//	fib = gowool.Define1("fib", func(w *gowool.Worker, n int64) int64 {
//		if n < 2 {
//			return n
//		}
//		fib.Spawn(w, n-2)       // SPAWN: stealable child
//		a := fib.Call(w, n-1)   // CALL: plain recursive call
//		b := fib.Join(w)        // JOIN: inline or resolve the steal
//		return a + b
//	})
//
//	pool := gowool.NewPool(gowool.Options{Workers: 8, PrivateTasks: true})
//	defer pool.Close()
//	r := pool.Run(func(w *gowool.Worker) int64 { return fib.Call(w, 40) })
//
// Spawn and Join must be balanced within each task (LIFO), exactly like
// Wool's SPAWN/JOIN. Run executes the root on the calling goroutine as
// worker 0 while the pool's other workers steal.
//
// # Idle workers
//
// Between parallel regions, idle workers back off from spinning through
// yields into capped sleeps (Options.MaxIdleSleep) and finally park on
// an idle engine, so a quiescent pool consumes ~0% CPU; producers wake
// parked workers the moment work becomes visible. A negative
// MaxIdleSleep restores the paper's dedicated-machine spinning, with no
// parking; Stats.Parks and Stats.Wakes count parking, and
// Pool.ParkedWorkers observes it live.
//
// # Tracing and abort semantics
//
// Options.Trace attaches a Tracer (NewTracer): each worker records
// scheduler events — spawns, steals and leapfrogs, publications and
// privatizations, parks and wakes — into its own lock-free ring at a
// few nanoseconds per event, and a nil tracer costs nothing on the
// fast path. Export the result as a Chrome trace_event JSON
// (Tracer.WriteChromeTrace, viewable in Perfetto) or a worker×worker
// steal matrix (Tracer.StealMatrix); Tracer.Snapshot and
// Pool.StatsSnapshot may be read live, with documented raciness.
//
// A panic escaping a task re-raises from Run with the original panic
// value, even when the task was stolen (the thief hands the panic
// back instead of dying and deadlocking the join). The abandoned task
// tree is not unwound, so the pool is poisoned: later Run calls panic
// with a distinct "pool poisoned by earlier task panic" message until
// Reset has discarded the tree; Close is safe either way. See DESIGN.md §11.
//
// # Robustness
//
// A spawn that finds the task pool full (Options.StackSize) degrades
// to inline serial execution — a spawn is permission to parallelize,
// not an obligation — counted in Stats.OverflowInlined;
// Options.StrictOverflow restores the overflow panic for catching
// runaway spawn depth. Options.Watchdog arms a stuck-run monitor: if
// scheduler progress stalls for the interval while a join is blocked
// and nothing is executing, the run fails with a *WatchdogError
// carrying a diagnostic dump of per-worker protocol state instead of
// hanging. See DESIGN.md §12.
//
// The repository also contains, under internal/, the baseline
// schedulers (Chase-Lev deque, lock-based ladder, steal-parent
// continuation scheduler, centralized pool), the deterministic
// virtual-time multiprocessor used to reproduce the paper's
// multi-processor experiments on any host, and the benchmark harness
// regenerating every table and figure of the paper; see DESIGN.md and
// EXPERIMENTS.md.
package gowool

import (
	"gowool/internal/core"
	"gowool/internal/trace"
)

// Re-exported core types. The scheduler implementation lives in
// internal/core; these aliases are the supported public surface.
type (
	// Pool is a scheduler instance: a set of workers with direct task
	// stacks. Create with NewPool, submit with Run, release with Close.
	Pool = core.Pool

	// Worker is the per-worker handle threaded through task functions.
	Worker = core.Worker

	// Options configures a Pool; zero value means defaults.
	Options = core.Options

	// Stats are the scheduler's event counters (spawns, steals, ...).
	Stats = core.Stats

	// TaskDef1..TaskDef4 are task definitions with 1..4 int64 args.
	TaskDef1 = core.TaskDef1
	TaskDef2 = core.TaskDef2
	TaskDef3 = core.TaskDef3
	TaskDef4 = core.TaskDef4

	// WatchdogError is the failure a tripped Options.Watchdog raises
	// from Run: no scheduler progress for the interval with a blocked
	// join outstanding, plus a diagnostic dump (Bundle) of per-worker
	// protocol state at trip time. See DESIGN.md §12.
	WatchdogError = core.WatchdogError

	// Tracer is the low-overhead event tracer (Options.Trace): one
	// lock-free ring of scheduler events per worker, recording spawns,
	// steals, leapfrogs, publications, privatizations, parks and
	// wakes with monotonic timestamps. Export with WriteChromeTrace
	// (chrome://tracing / Perfetto) or StealMatrix; a nil tracer
	// disables recording at zero fast-path cost. See DESIGN.md §11.
	Tracer = trace.Tracer
)

// NewPool creates a pool with opts.Workers workers (default
// runtime.GOMAXPROCS(0)). Worker 0 is driven by the goroutine calling
// Run; the others steal until Close.
func NewPool(opts Options) *Pool { return core.NewPool(opts) }

// NewTracer creates an event tracer with one ring per worker, each
// holding capacity events (rounded up to a power of two; <= 0 means
// the default 65536). Pass it as Options.Trace; when a ring fills,
// the oldest events are overwritten and counted in Tracer.Dropped.
func NewTracer(workers, capacity int) *Tracer { return trace.New(workers, capacity) }

// Define1 declares a task taking one int64, generating its
// task-specific spawn and join (direct call on the inline path).
func Define1(name string, fn func(*Worker, int64) int64) *TaskDef1 {
	return core.Define1(name, fn)
}

// Define2 declares a task taking two int64 arguments.
func Define2(name string, fn func(*Worker, int64, int64) int64) *TaskDef2 {
	return core.Define2(name, fn)
}

// Define3 declares a task taking three int64 arguments.
func Define3(name string, fn func(*Worker, int64, int64, int64) int64) *TaskDef3 {
	return core.Define3(name, fn)
}

// Define4 declares a task taking four int64 arguments.
func Define4(name string, fn func(*Worker, int64, int64, int64, int64) int64) *TaskDef4 {
	return core.Define4(name, fn)
}

// TaskDefC1 is a task definition carrying a typed context pointer and
// one int64 argument.
type TaskDefC1[C any] = core.TaskDefC1[C]

// TaskDefC2 is a task definition carrying a typed context pointer and
// two int64 arguments.
type TaskDefC2[C any] = core.TaskDefC2[C]

// TaskDefC3 is a task definition carrying a typed context pointer and
// three int64 arguments.
type TaskDefC3[C any] = core.TaskDefC3[C]

// DefineC1 declares a task taking a typed context pointer and one
// int64. The pointer travels in the descriptor without allocating.
func DefineC1[C any](name string, fn func(*Worker, *C, int64) int64) *TaskDefC1[C] {
	return core.DefineC1(name, fn)
}

// DefineC2 declares a task taking a typed context pointer and two
// int64 arguments.
func DefineC2[C any](name string, fn func(*Worker, *C, int64, int64) int64) *TaskDefC2[C] {
	return core.DefineC2(name, fn)
}

// DefineC3 declares a task taking a typed context pointer and three
// int64 arguments.
func DefineC3[C any](name string, fn func(*Worker, *C, int64, int64, int64) int64) *TaskDefC3[C] {
	return core.DefineC3(name, fn)
}

// For runs body(i) for every i in [lo, hi) as a balanced task tree
// with at most grain iterations per leaf (Wool's loop construct, used
// by the paper's mm benchmark). grain ≤ 0 makes every iteration its
// own task. The body runs on whichever workers steal its subtrees.
func For(w *Worker, lo, hi, grain int64, body func(i int64)) {
	core.For(w, lo, hi, grain, body)
}
