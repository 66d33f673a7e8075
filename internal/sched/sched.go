// Package sched is the scheduler registry: one abstraction behind the
// seven schedulers registered here — the paper's direct task stack
// (internal/core) twice, behind generic and behind generated ports, the
// Chase-Lev deque (the TBB stand-in), the lock-based ladder, the
// steal-parent continuation scheduler (the Cilk++ stand-in), the
// centralized OpenMP-style pool, and the idiomatic-Go goroutine
// baseline.
//
// The paper's whole argument is comparative, and before this layer the
// comparison was wired by hand: every workload re-implemented the
// identical recursion once per scheduler, and every tool carried
// scheduler-specific switch plumbing. Here each scheduler registers
// once, exposing
//
//   - a normalized Options → native-knob mapping (NewPool),
//   - a normalized Stats ← native-counter mapping,
//   - capability flags (Caps) declaring what the backend can do, and
//   - generic RunRec/RunRange entry points that instantiate a
//     workload's divide-and-conquer body (a RecJob or RangeJob,
//     written once) for that backend.
//
// Adding a scheduler is one package plus one Register call; the
// conformance suite (conformance_test.go), cmd/woolrun and the
// experiment harness pick it up by enumerating the registry.
package sched

import (
	"sort"
	"time"

	"gowool/internal/chaos"
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
	// stack; chaselev: deque slots), and the initial pool capacity on
	// backends with growable pools (cilk: continuation deque; omp:
	// central queue). gonative has no pool and ignores it. 0 means the
	// backend default.
	StackSize int
	// StrictOverflow makes a spawn that finds a fixed-capacity pool
	// full panic instead of degrading to inline serial execution
	// (core, chaselev, locksched). Backends without a fixed-capacity
	// pool ignore it.
	StrictOverflow bool
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
	// Steal selects the victim policy and steal amount
	// (internal/steal) on backends that advertise them
	// (Caps.StealPolicies / Caps.StealAmounts). The zero value is each
	// backend's historical default — uniform-random victims, one task
	// per steal. Backends without the capability ignore it.
	Steal steal.Config
}

// Caps declares what a registered scheduler can do, so registry-driven
// tools degrade gracefully instead of special-casing names.
type Caps struct {
	// Steal is a one-phrase description of the load-balancing
	// mechanism (synchronization locus and steal order).
	Steal string
	// StealChild is true when spawned children are the stealable
	// units (Wool, TBB); false for steal-parent continuations and the
	// non-stealing baselines.
	StealChild bool
	// PrivateTasks is true when Options.PrivateTasks has an effect.
	PrivateTasks bool
	// Leapfrog is true when a join blocked on a stolen task steals
	// back from the thief (the paper's leapfrogging).
	Leapfrog bool
	// WorkSharing is true when RunRange uses a work-sharing loop
	// (OpenMP parallel-for style) rather than a balanced task tree.
	WorkSharing bool
	// Stats is true when Pool.Stats returns live counters.
	Stats bool
	// TaskDefs is true when the backend exposes DefineC3-style task
	// constructors and Pool.Native returns its concrete pool, so
	// irregular workloads (cholesky) can be instantiated generically.
	TaskDefs bool
	// GeneratedPorts is true when RunRec/RunRange route through
	// woolgen-generated monomorphic ports (internal/gen/ports) instead
	// of the generic task-port layer in port.go.
	GeneratedPorts bool
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
	// StealAmounts lists the Options.Steal.Amount names the backend
	// honours; backends whose pools support batch extraction include
	// steal.AmountHalf.
	StealAmounts []string
}

// Pool is a running scheduler instance behind the normalized surface.
type Pool interface {
	// Workers returns the worker count.
	Workers() int
	// Close releases the pool's workers.
	Close()
	// Stats returns normalized counters (zero value when !Caps.Stats).
	Stats() Stats
	// ResetStats zeroes the counters (quiescent pools only).
	ResetStats()
	// RunRec executes a binary divide-and-conquer job and returns the
	// summed result over the job's serialized repetitions.
	RunRec(RecJob) int64
	// RunRange executes an index-range job (balanced task tree, or a
	// work-sharing loop where Caps.WorkSharing) and returns the sum
	// of the leaf values over the job's repetitions.
	RunRange(RangeJob) int64
	// Native returns the backend's concrete pool (*core.Pool,
	// *chaselev.Pool, ...) or nil when the backend has none
	// (gonative runs on the Go runtime itself).
	Native() any
}

// Scheduler is one registered scheduler.
type Scheduler interface {
	// Name is the registry key (also the CLI -sched value).
	Name() string
	// Blurb is a one-line description for listings.
	Blurb() string
	// Caps returns the capability flags.
	Caps() Caps
	// NewPool creates a pool with the normalized options.
	NewPool(Options) Pool
}

// The registry. Entries are kept in presentation order: the paper's
// system order (Wool first, then the baselines), then external
// additions in registration order.
var (
	registry []entry
	byName   = map[string]Scheduler{}
)

type entry struct {
	s    Scheduler
	rank int
}

// register adds s with an explicit presentation rank (package use).
func register(s Scheduler, rank int) {
	if _, dup := byName[s.Name()]; dup {
		panic("sched: duplicate scheduler " + s.Name())
	}
	registry = append(registry, entry{s, rank})
	byName[s.Name()] = s
	sort.SliceStable(registry, func(i, j int) bool { return registry[i].rank < registry[j].rank })
}

// Register adds an externally defined scheduler to the registry (after
// the built-ins, in registration order). It panics on a duplicate
// name.
func Register(s Scheduler) { register(s, 100+len(registry)) }

// All returns the registered schedulers in presentation order.
func All() []Scheduler {
	out := make([]Scheduler, len(registry))
	for i, e := range registry {
		out[i] = e.s
	}
	return out
}

// Lookup finds a scheduler by name.
func Lookup(name string) (Scheduler, bool) {
	s, ok := byName[name]
	return s, ok
}

// Names returns the registered names in presentation order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.s.Name()
	}
	return out
}
