// Package sched is the scheduler registry: a table of six rows, one
// per scheduler — the paper's direct task stack (internal/core) twice,
// behind generic and behind generated ports, the Chase-Lev deque (the
// TBB stand-in), the lock-based ladder, the centralized OpenMP-style
// pool, and the idiomatic-Go goroutine baseline. A row gives
//
//   - a normalized Options → native-knob mapping (NewPool),
//   - a normalized Stats ← native-counter mapping,
//   - capability flags (Caps) declaring what the backend can do, and
//   - RunRec/RunRange entry points that instantiate a workload's
//     divide-and-conquer body (a RecJob or RangeJob, written once) for
//     that backend.
//
// Adding a scheduler is one package plus one row; the conformance
// suite (conformance_test.go), cmd/woolrun and the experiment harness
// pick it up by enumerating the registry.
package sched

import (
	"runtime"
	"slices"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/chaselev"
	"gowool/internal/core"
	"gowool/internal/gen/ports"
	"gowool/internal/gonative"
	"gowool/internal/locksched"
	"gowool/internal/ompstyle"
	"gowool/internal/steal"
	"gowool/internal/trace"
)

// Options is the normalized pool configuration. Every field maps onto
// a native knob where the backend has one and is ignored where it does
// not; backend-specific tuning (steal strategies, deque sizes, wait
// policies, parking modes) stays on the native Options — reach the
// concrete pool through Pool.Native for ablations.
type Options struct {
	// Workers is the worker count; default GOMAXPROCS.
	Workers int
	// StackSize is the per-worker task-pool capacity, where the
	// backend has a fixed-capacity pool (core, locksched: descriptor
	// stack; chaselev: deque slots), and the initial capacity of omp's
	// growable central queue. gonative has no pool and ignores it. 0
	// means the backend default.
	StackSize int
	// PrivateTasks enables the private-task optimization on backends
	// that implement it (the direct task stack only).
	PrivateTasks bool
	// MaxIdleSleep caps idle back-off sleeping on backends with an
	// idle loop. 0 means the backend default.
	MaxIdleSleep time.Duration
	// Trace is the event sink: when non-nil, backends with Caps.Trace
	// record scheduler events (at least STEAL and PARK; the direct
	// task stack records the full vocabulary) into the tracer's
	// per-worker rings. The tracer must have at least Workers rings.
	// Backends without the capability ignore it. nil disables tracing
	// at zero fast-path cost.
	Trace *trace.Tracer
	// Chaos attaches a woolchaos fault injector on backends with
	// Caps.Chaos: protocol points are perturbed (delays, yields,
	// failed attempts) under a seeded deterministic PRNG. The injector
	// must have at least Workers agents. Backends without the
	// capability ignore it. nil disables injection at zero fast-path
	// cost.
	Chaos *chaos.Injector
	// Watchdog arms the stuck-run watchdog on backends with
	// Caps.Watchdog: a Run making no scheduler progress for this long
	// while a worker sits blocked fails with a diagnostic bundle
	// instead of hanging. The blocked worker checks this itself, in its
	// wait loop; no goroutine runs for it. 0 disables it. Backends
	// without the capability ignore it.
	Watchdog time.Duration
	// Steal selects the victim policy (internal/steal) on backends
	// that advertise one (Caps.StealPolicies). The zero value is each
	// backend's historical default. Backends without the capability
	// ignore it.
	Steal steal.Config
}

// Caps declares what a registered scheduler can do, so registry-driven
// tools degrade gracefully instead of special-casing names. Every flag
// is one some caller branches on: CheckOptions on the option gates,
// woolrun on Stats and TaskDefs.
type Caps struct {
	// Steal is a one-phrase description of the load-balancing
	// mechanism (synchronization locus and steal order).
	Steal string
	// PrivateTasks is true when Options.PrivateTasks has an effect.
	PrivateTasks bool
	// Stats is true when Pool.Stats returns live counters.
	Stats bool
	// TaskDefs is true when the backend exposes DefineC3-style task
	// constructors and Pool.Native returns its concrete pool, so
	// irregular workloads (cholesky) can be instantiated generically.
	TaskDefs bool
	// Trace is true when Options.Trace routes scheduler events into
	// the tracer's rings (at minimum STEAL and PARK).
	Trace bool
	// Chaos is true when Options.Chaos injects faults at the backend's
	// protocol points.
	Chaos bool
	// Watchdog is true when Options.Watchdog arms stuck-run detection.
	Watchdog bool
	// StealPolicies lists the Options.Steal.Policy names the backend's
	// victim selection honours (empty: no policy-driven victim
	// selection — central queues, no-steal baselines).
	StealPolicies []string
}

// Scheduler is one row of the registry.
type Scheduler struct {
	name, blurb string
	caps        Caps
	// newPool builds the backend's pool from the normalized options
	// and fills p's entry points.
	newPool func(p *Pool, o Options)
}

// Name is the registry key (also the CLI -sched value).
func (s *Scheduler) Name() string { return s.name }

// Blurb is a one-line description for listings.
func (s *Scheduler) Blurb() string { return s.blurb }

// Caps returns the capability flags; the lists are the caller's own.
func (s *Scheduler) Caps() Caps {
	c := s.caps
	c.StealPolicies = slices.Clone(c.StealPolicies)
	return c
}

// NewPool creates a pool with the normalized options.
func (s *Scheduler) NewPool(o Options) *Pool {
	p := new(Pool)
	s.newPool(p, o)
	if p.native != nil {
		p.workers = p.native.Workers()
	}
	return p
}

// Pool is a running scheduler instance behind the normalized surface.
type Pool struct {
	native interface { // the concrete pool; nil on gonative
		Workers() int
		Close()
		ResetStats()
	}
	workers  int
	stats    func() Stats
	runRec   func(RecJob) int64
	runRange func(RangeJob) int64
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.workers }

// Close releases the pool's workers.
func (p *Pool) Close() {
	if p.native != nil {
		p.native.Close()
	}
}

// Stats returns normalized counters (zero value when !Caps.Stats).
func (p *Pool) Stats() Stats { return p.stats() }

// ResetStats zeroes the counters (quiescent pools only).
func (p *Pool) ResetStats() {
	if p.native != nil {
		p.native.ResetStats()
	}
}

// RunRec executes a binary divide-and-conquer job and returns the
// summed result over the job's serialized repetitions.
func (p *Pool) RunRec(j RecJob) int64 { return p.runRec(j) }

// RunRange executes an index-range job (a balanced task tree, or
// omp's work-sharing loop) and returns the sum of the leaf values over
// the job's repetitions.
func (p *Pool) RunRange(j RangeJob) int64 { return p.runRange(j) }

// Native returns the backend's concrete pool (*core.Pool,
// *chaselev.Pool, ...) or nil when the backend has none (gonative runs
// on the Go runtime itself).
func (p *Pool) Native() any { return p.native }

// woolCaps is the direct task stack's row, behind either port layer.
var woolCaps = Caps{
	Steal:         "CAS on the task descriptor's state word; steal child, oldest first",
	PrivateTasks:  true,
	Stats:         true,
	TaskDefs:      true,
	Trace:         true,
	Chaos:         true,
	Watchdog:      true,
	StealPolicies: steal.Policies(),
}

// registry is the table, in presentation order: the paper's system
// order, Wool first, then the baselines.
var registry = []Scheduler{{
	name:  "wool",
	blurb: "direct task stack (the paper's scheduler): descriptors inline in a per-worker array, thief/victim sync on the descriptor state word, private tasks, leapfrogging",
	caps:  woolCaps,
	newPool: func(p *Pool, o Options) {
		np := newCorePool(p, o)
		p.runRec = func(j RecJob) int64 { return np.Run(recRoot(core.Define1, j)) }
		p.runRange = func(j RangeJob) int64 { return np.Run(rangeRoot(core.Define2, j)) }
	},
}, {
	// wool's core.Pool behind the generated ports (internal/gen/ports,
	// DESIGN.md §13). As its own row it runs the generated code under
	// the full conformance, torture, panic and chaos surface; a
	// Server's lanes are built through it.
	name:  "woolgen",
	blurb: "direct task stack behind woolgen-generated monomorphic ports: private-path spawn/join flattens to plain stores and direct body calls",
	caps:  woolCaps,
	newPool: func(p *Pool, o Options) {
		np := newCorePool(p, o)
		p.runRec = func(j RecJob) int64 {
			return ports.RunRec(np, &ports.RecCtx{Leaf: j.Leaf, Split: j.Split}, j.Root, j.Reps)
		}
		p.runRange = func(j RangeJob) int64 {
			return ports.RunRange(np, &ports.RangeCtx{Leaf: j.Leaf}, j.N, j.Reps)
		}
	},
}, {
	// The TBB stand-in.
	name:  "chaselev",
	blurb: "Chase-Lev deque, TBB-style: free-list task structures, pointer deque, thief/victim sync on the top/bottom indices, steal-anywhere blocked joins",
	caps: Caps{
		Steal:         "CAS on the deque's top index; steal child, oldest first",
		Stats:         true,
		TaskDefs:      true,
		Trace:         true,
		Chaos:         true,
		StealPolicies: steal.Policies(),
	},
	newPool: func(p *Pool, o Options) {
		np := chaselev.NewPool(chaselev.Options{
			Workers:      o.Workers,
			DequeSize:    o.StackSize,
			MaxIdleSleep: o.MaxIdleSleep,
			Trace:        o.Trace,
			Chaos:        o.Chaos,
			Steal:        o.Steal,
		})
		p.native, p.stats = np, func() Stats {
			s := np.Stats()
			return Stats{Counts: s.Counts, Extra: map[string]int64{
				"wait_steals": s.WaitSteals,
				"allocs":      s.Allocs,
			}}
		}
		p.runRec = func(j RecJob) int64 { return np.Run(recRoot(chaselev.Define1, j)) }
		p.runRange = func(j RangeJob) int64 { return np.Run(rangeRoot(chaselev.Define2, j)) }
	},
}, {
	// The paper's "base" steal implementation (Table II, Figure 4).
	name:  "locksched",
	blurb: "lock-based, the paper's Base: per-worker locked task pools, a thief locks the victim then compares indices, leapfrogging joins",
	caps: Caps{
		Steal:         "per-worker lock around the victim's pool; steal child, oldest first",
		Stats:         true,
		TaskDefs:      true,
		Trace:         true,
		Chaos:         true,
		StealPolicies: steal.Policies(),
	},
	newPool: func(p *Pool, o Options) {
		np := locksched.NewPool(locksched.Options{
			Workers:      o.Workers,
			StackSize:    o.StackSize,
			MaxIdleSleep: o.MaxIdleSleep,
			Trace:        o.Trace,
			Chaos:        o.Chaos,
			Steal:        o.Steal,
		})
		p.native, p.stats = np, func() Stats { return Stats{Counts: np.Stats()} }
		p.runRec = func(j RecJob) int64 { return np.Run(recRoot(locksched.Define1, j)) }
		p.runRange = func(j RangeJob) int64 { return np.Run(rangeRoot(locksched.Define2, j)) }
	},
}, {
	// The centralized OpenMP-style pool; its ports are in omp.go.
	name:  "omp",
	blurb: "centralized pool, icc OpenMP 3.0-style: closure tasks through one global lock, taskwait helps, loops by work-sharing",
	caps: Caps{
		Steal: "one lock-protected central queue; any idle worker takes the oldest task",
		Stats: true,
		Trace: true,
		Chaos: true,
		// No StealPolicies: a central queue has no victims to select.
	},
	newPool: func(p *Pool, o Options) {
		np := ompstyle.NewPool(ompstyle.Options{
			Workers:      o.Workers,
			QueueSize:    o.StackSize,
			MaxIdleSleep: o.MaxIdleSleep,
			Trace:        o.Trace,
			Chaos:        o.Chaos,
		})
		p.native, p.stats = np, func() Stats {
			s := np.Stats()
			return Stats{Counts: s.Counts, Extra: map[string]int64{
				"executed":    s.Executed,
				"wait_loops":  s.WaitLoops,
				"chunks_run":  s.ChunksRun,
				"max_queued":  s.MaxQueued,
				"lock_passes": s.LockPasses,
			}}
		}
		p.runRec = func(j RecJob) int64 { return ompRunRec(np, j) }
		p.runRange = func(j RangeJob) int64 { return ompRunRange(np, j) }
	},
}, {
	// Fork-join with goroutines, channels and WaitGroups, scheduled by
	// the Go runtime: no pool object, no counters, and nothing for
	// StackSize, Chaos or Watchdog to act on. RunRec throttles with
	// ForkBounded — the manual granularity control Go programs need and
	// the paper's scheduler exists to remove.
	name:  "gonative",
	blurb: "idiomatic Go baseline: goroutines + channels/WaitGroups on the Go runtime, bounded forking for recursion, goroutine-per-chunk loops",
	caps: Caps{
		Steal: "the Go runtime's own scheduler; no explicit task pool",
		// No StealPolicies: victim selection belongs to the Go runtime.
	},
	newPool: func(p *Pool, o Options) {
		p.workers = o.Workers
		if p.workers <= 0 {
			p.workers = runtime.GOMAXPROCS(0)
		}
		p.stats = func() Stats { return Stats{} }
		p.runRec = func(j RecJob) int64 {
			fb := gonative.NewForkBounded(p.workers)
			var rec func(n int64) int64
			rec = func(n int64) int64 {
				if v, ok := j.Leaf(n); ok {
					return v
				}
				first, second := j.Split(n)
				a, b := fb.Fork(
					func() int64 { return rec(second) },
					func() int64 { return rec(first) },
				)
				return a + b
			}
			var total int64
			for r := int64(0); r < reps(j.Reps); r++ {
				total += rec(j.Root)
			}
			return total
		}
		p.runRange = func(j RangeJob) int64 {
			out := make([]int64, j.N)
			var total int64
			for r := int64(0); r < reps(j.Reps); r++ {
				if j.Irregular {
					gonative.ParallelForDynamic(0, j.N, 4, func(i int64) { out[i] = j.Leaf(i) })
				} else {
					gonative.ParallelFor(0, j.N, p.workers, func(i int64) { out[i] = j.Leaf(i) })
				}
				for _, v := range out {
					total += v
				}
			}
			return total
		}
	},
}}

// newCorePool builds the direct task stack for the wool and woolgen
// rows: the option mapping, the native pool and the Stats mapping.
func newCorePool(p *Pool, o Options) *core.Pool {
	np := core.NewPool(core.Options{
		Workers:      o.Workers,
		StackSize:    o.StackSize,
		PrivateTasks: o.PrivateTasks,
		MaxIdleSleep: o.MaxIdleSleep,
		Trace:        o.Trace,
		Chaos:        o.Chaos,
		Watchdog:     o.Watchdog,
		Steal:        o.Steal,
	})
	p.native, p.stats = np, func() Stats { return Stats{Counts: np.Stats()} }
	return np
}

// All returns the registered schedulers in presentation order, in a
// slice of the caller's own.
func All() []*Scheduler {
	out := make([]*Scheduler, len(registry))
	for i := range registry {
		out[i] = &registry[i]
	}
	return out
}

// Lookup finds a scheduler by name.
func Lookup(name string) (*Scheduler, bool) {
	for i := range registry {
		if registry[i].name == name {
			return &registry[i], true
		}
	}
	return nil, false
}

// Names returns the registered names in presentation order.
func Names() []string {
	out := make([]string, len(registry))
	for i := range registry {
		out[i] = registry[i].name
	}
	return out
}
