// Package steal is the composable victim-selection policy layer shared
// by every work-stealing backend in this repository and by the
// virtual-time simulator.
//
// Before this package each backend carried its own copy of the same
// xorshift64 victim generator, and the retention (last-victim)
// refinement lived inline in core's chooseVictim. Following
// "Configurable Strategies for Work-stealing" (arXiv:1305.6474), victim
// order decomposes into an independent strategy object: a Policy holds
// per-worker, owner-private state (an RNG stream, a retention slot, a
// scan cursor, a neighborhood), seeded deterministically per worker
// like the chaos agents, and the thief loop asks it which worker to rob
// next. "On the Efficiency of Localized Work Stealing"
// (arXiv:1804.04773) supplies the localized policy: steal from a ring
// neighborhood of nearby workers, spilling to a uniformly random remote
// victim with small probability.
//
// Concurrency contract: a Policy is owner-private state of exactly one
// worker — only the goroutine driving that worker may call its methods
// (the woolvet ownerprivate pass checks the backends' policy fields).
// The stealable probe passed to Choose may read other workers' protocol
// atomics, but the policy itself never shares state.
package steal

import "fmt"

// Policy names (Config.Policy). Policies() lists them in presentation
// order.
const (
	// Random is uniform victim selection over the other workers — the
	// paper's policy.
	Random = "random"
	// LastVictim wraps Random with last-successful-victim retention:
	// after a successful steal return to the same victim first,
	// dropping it at the first probe that finds nothing.
	LastVictim = "last-victim"
	// Sequential scans the workers round-robin from the thief's right
	// neighbour: fully deterministic, no RNG. A successful steal keeps
	// the cursor on the yielding victim (steals cluster); a failure
	// advances it.
	Sequential = "sequential"
	// Localized steals from a ring neighborhood of the
	// Config.Neighborhood nearest workers, spilling to a uniformly
	// random remote victim with probability 0.05 (arXiv:1804.04773).
	Localized = "localized"
)

// Policies returns the victim-policy names in presentation order.
func Policies() []string {
	return []string{Random, LastVictim, Sequential, Localized}
}

// localizedSpill is the Localized spill-out probability, 0.05, as the
// fixed-point threshold the high 32 bits of a draw are compared
// against: ⌊0.05·2³²⌋.
const localizedSpill = 214748364

// Config selects and parameterizes a victim policy. The zero value is
// usable: it resolves to the uniform-random policy — every backend's
// historical default.
type Config struct {
	// Policy is one of Policies(); "" means Random.
	Policy string

	// Neighborhood is the Localized ring-neighborhood size: the number
	// of nearest workers (alternating right/left on the worker ring)
	// eligible for a local steal. 0 means the default of 4; values
	// >= workers-1 degenerate to Random.
	Neighborhood int

	// Seed, when nonzero, derives the per-worker RNG streams from a
	// run seed (the simulator's convention, matching its pre-refactor
	// streams bit for bit). Zero uses the native backends'
	// golden-ratio per-worker schedule — also bit-identical to the
	// rng each backend seeded before this package existed.
	Seed uint64
}

// Defaults returns c with every unset field replaced by its default.
func (c Config) Defaults() Config {
	if c.Policy == "" {
		c.Policy = Random
	}
	if c.Neighborhood <= 0 {
		c.Neighborhood = 4
	}
	return c
}

// Validate reports whether c names a known policy. Call it
// on the pre-Defaults value or after; both accept "".
func (c Config) Validate() error {
	switch c.Policy {
	case "", Random, LastVictim, Sequential, Localized:
	default:
		return fmt.Errorf("unknown steal policy %q (have %v)", c.Policy, Policies())
	}
	return nil
}

// Policy is one worker's victim-selection strategy. All methods are
// owner-private: only the goroutine driving the owning worker may call
// them.
type Policy interface {
	// Name returns the policy name (one of Policies()).
	Name() string

	// Choose returns the index of the next victim to rob. It never
	// returns the owning worker's index unless the pool has a single
	// worker (in which case the caller's steal attempt fails on the
	// victim==self check, exactly like the pre-refactor nextVictim).
	//
	// stealable, when non-nil, is a read-only probe of a candidate's
	// pool (e.g. core's stealableAt): the retention check uses it to
	// skip a retained victim that looks empty. nil (the simulator,
	// lock-guarded pools) disables probing; failures are then
	// accounted through Observe instead.
	Choose(stealable func(int) bool) int

	// Observe feeds back the outcome of the steal attempt at victim v.
	// retained reports a repeat success at the retained victim (the
	// LastVictim hit counter; core surfaces it as
	// Stats.RetainedSteals). Call it after every policy-chosen attempt;
	// leapfrog steals (fixed thief, not policy-chosen) are not
	// observed.
	Observe(v int, ok bool) (retained bool)
}

// WorkerSeed returns the per-worker RNG seed for a run seed: the
// native backends' golden-ratio schedule when seed is zero, or the
// simulator's splitmix offsets from the run seed otherwise. Both
// reproduce the streams the respective callers seeded before this
// package existed.
func WorkerSeed(seed uint64, self int) uint64 {
	if seed == 0 {
		return uint64(self)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	}
	return seed + uint64(self)*0x2545f4914f6cdd1d + 1
}

// New builds the policy cfg names for worker self of a workers-sized
// pool, seeded deterministically (WorkerSeed). It panics on an invalid
// config — policy construction happens at pool construction, where the
// other option validations panic too.
func New(cfg Config, self, workers int) Policy {
	if err := cfg.Validate(); err != nil {
		panic("steal: " + err.Error())
	}
	if workers <= 0 || self < 0 || self >= workers {
		panic(fmt.Sprintf("steal: worker %d of %d out of range", self, workers))
	}
	cfg = cfg.Defaults()
	base := randomPolicy{
		rng:  NewRNG(WorkerSeed(cfg.Seed, self)),
		self: self,
		n:    workers,
	}
	switch cfg.Policy {
	case Random:
		return &base
	case LastVictim:
		return &lastVictimPolicy{randomPolicy: base, last: -1}
	case Sequential:
		cur := self
		if workers > 1 {
			cur = (self + 1) % workers
		}
		return &sequentialPolicy{self: self, n: workers, cur: cur}
	case Localized:
		h := cfg.Neighborhood
		if h > workers-1 {
			h = workers - 1
		}
		return &localizedPolicy{randomPolicy: base, h: h}
	}
	panic("steal: unreachable policy " + cfg.Policy)
}

// InNeighborhood reports whether victim is one of the workers the
// localized policy with neighborhood h robs from thief on an n-ring
// when it does not spill: thief's first h ring neighbours in the order
// +1, -1, +2, -2, ... (all n-1 others once h >= n-1). An odd h covers
// one side one step further than the other, so a ring distance alone
// cannot tell membership.
func InNeighborhood(thief, victim, h, n int) bool {
	for j := 0; j < h && j < n-1; j++ {
		if neighbor(thief, j, n) == victim {
			return true
		}
	}
	return false
}

// RingDistance returns the distance between workers a and b on the
// n-ring — the victim-distance metric of the Localized policy, the
// simulator's sharded topology, and the steal-matrix locality reports.
func RingDistance(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if alt := n - d; alt < d {
		d = alt
	}
	return d
}
