// Package chaos is a seeded, deterministic fault-injection layer for
// the scheduler protocols. The steal protocols are correct because a
// handful of nanosecond-wide windows — the owner's exchange racing the
// thief's CAS, the bot re-check closing the ABA window, the trip-wire
// publish, leapfrog target selection — compose safely; a normal run
// almost never opens them, so "the stress tests pass" is weak evidence.
// An Injector forces those windows open: each scheduler calls into its
// per-worker Agent at named protocol points (Point constants below) and
// the agent, driven by a splitmix64-seeded PRNG, decides whether to
//
//   - delay: busy-spin and/or runtime.Gosched at the point, stretching
//     the protocol window so concurrent parties actually land inside it;
//   - yield: a single Gosched, handing the timeslice to the party on
//     the other side of the window (yield-to-thief / yield-to-owner);
//   - fail: report "lose this attempt" so the caller abandons one
//     optimistic attempt (a thief's CAS "loses", a TryLock "fails") and
//     exercises its retry/back-off path. Fail is only consulted at
//     attempt-shaped sites where one abandoned attempt is always safe;
//     owner-side obligations (the exchange, a publication) ignore it.
//
// Determinism: every decision comes from the agent's private splitmix64
// stream, derived from (seed, worker index). The same seed and profile
// replay the same per-worker decision sequence byte-identically, so a
// failing torture run is reproduced by re-running with the logged seed.
// Wall-clock interleaving still varies across runs — the injection is
// deterministic, the OS scheduler is not — but the injected schedule
// perturbation is.
//
// Like internal/trace, the disabled path is a nil pointer: a worker
// whose chaos agent is nil pays one predictable branch per hook site
// and nothing else (no allocations, no atomics — pinned by
// TestChaosOverheadDisabled in internal/core).
package chaos

import (
	"fmt"
	"runtime"
)

// Point names one protocol location where faults can be injected. The
// mapping from point to the paper's protocol step is tabulated in
// DESIGN.md §12.
type Point uint8

// Injection points.
const (
	// PointOwnerExchange: the owner is about to claim its youngest
	// task with the atomic exchange (core joinAcquire) or the locked
	// index comparison (locksched joinAcquire). Delaying here holds the
	// join open while thieves race the same descriptor.
	PointOwnerExchange Point = iota

	// PointThiefCAS: a thief is about to CAS-claim a task (core state
	// CAS, chaselev top CAS). Delaying widens the read→CAS window (the
	// ABA setup); failing makes this thief's attempt lose.
	PointThiefCAS

	// PointBotBackoff: a core thief won its CAS and is about to re-read
	// the victim's bot (the ABA guard). Delaying stretches the transient
	// EMPTY window the owner's joinSlow has to spin through.
	PointBotBackoff

	// PointTripwirePublish: the owner is answering a trip-wire
	// notification (core/sim publishMore). Delaying starves the public
	// region while thieves keep probing it.
	PointTripwirePublish

	// PointLeapfrogPick: a blocked join is about to attempt a steal
	// from the recorded thief. Failing skips the attempt, simulating a
	// thief whose pool looks perpetually empty.
	PointLeapfrogPick

	// PointParkDecision: an idle worker is deciding whether to park or
	// sleep. Force here flips the decision toward parking immediately
	// (park-flapping), stressing the wake protocol.
	PointParkDecision

	// PointDequePop: the owner of a Chase-Lev deque is popping at the
	// bottom. Delaying sits the owner inside the owner-vs-thief
	// last-element race. Never failed: faking a lost pop would strand a
	// task both sides believe the other owns.
	PointDequePop

	// PointLockAcquire: a thief is about to take the victim's lock
	// (locksched). Failing aborts the attempt like a contended TryLock.
	PointLockAcquire

	// PointQueueTake: a worker is about to take from the central queue
	// (ompstyle). Failing skips the take, as if the queue were empty.
	PointQueueTake

	// PointStealCommit: a core thief passed the ABA guard and is about
	// to commit STOLEN(self) and advance bot. Delaying holds the
	// descriptor in its transient state with the claim already won.
	PointStealCommit

	// NumPoints is the number of injection points.
	NumPoints
)

var pointNames = [NumPoints]string{
	PointOwnerExchange:   "owner-exchange",
	PointThiefCAS:        "thief-cas",
	PointBotBackoff:      "bot-backoff",
	PointTripwirePublish: "tripwire-publish",
	PointLeapfrogPick:    "leapfrog-pick",
	PointParkDecision:    "park-decision",
	PointDequePop:        "deque-pop",
	PointLockAcquire:     "lock-acquire",
	PointQueueTake:       "queue-take",
	PointStealCommit:     "steal-commit",
}

// String returns the stable point name (used in profiles and dumps).
func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("Point(%d)", int(p))
}

// Profile is one named fault mix. Each per-point rate is a probability
// numerator out of 65536 (0 = never, 65536 would be always; uint16
// caps at 65535 ≈ always).
type Profile struct {
	// Name identifies the profile (CLI -chaos value, test labels).
	Name string
	// Delay is the per-point chance of a busy-spin delay of SpinIters
	// iterations at the point.
	Delay [NumPoints]uint16
	// Yield is the per-point chance of a single runtime.Gosched.
	Yield [NumPoints]uint16
	// Fail is the per-point chance of reporting "lose this attempt".
	// Only consulted at attempt-shaped sites (see the Point docs).
	Fail [NumPoints]uint16
	// Force is the per-point chance of forcing a rare branch (Agent.
	// Force); today only PointParkDecision consults it (park early).
	Force [NumPoints]uint16
	// SpinIters is the busy-spin length of one delay hit. Each 1024
	// iterations the spin yields once so a delayed worker cannot
	// monopolize a core on small machines.
	SpinIters int
}

// delayHeavy stretches every protocol window without failing anything:
// the pure "slow machine" adversary.
func delayHeavy() Profile {
	p := Profile{Name: "delay-heavy", SpinIters: 512}
	for i := Point(0); i < NumPoints; i++ {
		p.Delay[i] = 6000 // ~9% of visits
		p.Yield[i] = 6000
	}
	return p
}

// casStarve makes thieves lose most optimistic attempts, driving the
// retry, back-off and trip-wire paths far harder than a real machine.
func casStarve() Profile {
	p := Profile{Name: "cas-starve", SpinIters: 256}
	p.Fail[PointThiefCAS] = 45000 // ~69% of thief CAS attempts lose
	p.Fail[PointLeapfrogPick] = 45000
	p.Fail[PointLockAcquire] = 45000
	p.Fail[PointQueueTake] = 30000
	p.Delay[PointThiefCAS] = 8000
	p.Delay[PointBotBackoff] = 12000 // long transient-EMPTY windows
	p.Delay[PointStealCommit] = 8000
	p.Yield[PointOwnerExchange] = 10000
	return p
}

// parkFlap forces idle workers to park far too eagerly while delaying
// publications, so nearly every unit of work must win a wake race.
func parkFlap() Profile {
	p := Profile{Name: "park-flap", SpinIters: 128}
	p.Force[PointParkDecision] = 20000 // ~31% of idle iterations park now
	p.Delay[PointTripwirePublish] = 16000
	p.Yield[PointThiefCAS] = 8000
	p.Fail[PointThiefCAS] = 8000
	return p
}

// Profiles returns the built-in profiles (the torture suite runs all
// of them; cmd/woolrun -chaos selects one by name).
func Profiles() []Profile {
	return []Profile{delayHeavy(), casStarve(), parkFlap()}
}

// ProfileByName finds a built-in profile.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Mix combines two values into a well-distributed third (splitmix64's
// finalizer over x + y·golden). Exported so tests and fuzz targets can
// derive deterministic per-node randomness from a replayable seed with
// the same mixing the injector uses.
func Mix(x, y uint64) uint64 {
	z := x + (y+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a splitmix64 stream: tiny state, full 2^64 period, and every
// draw is a finalized mix, so even consecutive seeds give uncorrelated
// streams (the property that makes per-worker substreams safe).
type RNG struct{ s uint64 }

// NewRNG seeds a stream.
func NewRNG(seed uint64) RNG { return RNG{s: seed} }

// Next returns the next 64 draw bits.
func (r *RNG) Next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Injector owns one Agent per worker, mirroring trace.Tracer's
// one-ring-per-worker shape: the scheduler caches Agent(i) in worker
// i's descriptor and only that worker's goroutine consults it.
type Injector struct {
	profile Profile
	seed    uint64
	agents  []*Agent
}

// NewInjector creates an injector with one agent per worker. Each
// agent's stream is derived from (seed, worker index) so the per-worker
// decision sequences are independent and individually replayable.
func NewInjector(workers int, profile Profile, seed uint64) *Injector {
	if workers <= 0 {
		workers = 1
	}
	in := &Injector{profile: profile, seed: seed, agents: make([]*Agent, workers)}
	for i := range in.agents {
		in.agents[i] = &Agent{
			inj: in,
			rng: NewRNG(Mix(seed, uint64(i))),
		}
	}
	return in
}

// Workers returns the number of per-worker agents.
func (in *Injector) Workers() int { return len(in.agents) }

// Agent returns worker i's agent. The scheduler caches this pointer in
// the worker struct, exactly like trace.Tracer.Ring.
func (in *Injector) Agent(i int) *Agent { return in.agents[i] }

// Seed returns the replay seed (logged by the torture suite and
// cmd/woolrun so failures reproduce).
func (in *Injector) Seed() uint64 { return in.seed }

// Profile returns the fault mix in effect.
func (in *Injector) Profile() Profile { return in.profile }

// Counts sums the per-point visit counters across all agents. Exact on
// a quiescent injector (no Run in flight), like Stats accessors.
func (in *Injector) Counts() [NumPoints]uint64 {
	var out [NumPoints]uint64
	for _, a := range in.agents {
		for p, c := range a.visits {
			out[p] += c
		}
	}
	return out
}

// Injected sums the per-point injection counters (visits where at
// least one fault — delay, yield, fail or force — actually fired).
func (in *Injector) Injected() [NumPoints]uint64 {
	var out [NumPoints]uint64
	for _, a := range in.agents {
		for p, c := range a.injected {
			out[p] += c
		}
	}
	return out
}

// Agent is one worker's fault stream. Single-writer: only the
// goroutine driving the owning worker may call Point/Force, so the
// state needs no synchronization (the trace.Ring discipline).
type Agent struct {
	inj      *Injector
	rng      RNG
	visits   [NumPoints]uint64
	injected [NumPoints]uint64
	// sink defeats dead-code elimination of the busy-spin loop;
	// per-agent so the delay write stays single-writer.
	sink uint64
}

// Point records a visit to p, applies any delay/yield the profile
// draws, and reports whether the caller should fail this attempt.
// Callers at non-attempt sites ignore the return value.
func (a *Agent) Point(p Point) bool {
	a.visits[p]++
	r := a.rng.Next()
	pr := &a.inj.profile
	hit := false
	if uint16(r) < pr.Delay[p] {
		hit = true
		acc := r
		for i := 0; i < pr.SpinIters; i++ {
			acc = acc*2862933555777941757 + 3037000493
			if i&1023 == 1023 {
				runtime.Gosched()
			}
		}
		a.sink += acc
	}
	r >>= 16
	if uint16(r) < pr.Yield[p] {
		hit = true
		runtime.Gosched()
	}
	r >>= 16
	fail := uint16(r) < pr.Fail[p]
	if fail || hit {
		a.injected[p]++
	}
	return fail
}

// Force records a visit to p and reports whether the caller should
// force its rare branch (today: park immediately at PointParkDecision).
func (a *Agent) Force(p Point) bool {
	a.visits[p]++
	r := a.rng.Next()
	force := uint16(r) < a.inj.profile.Force[p]
	if force {
		a.injected[p]++
	}
	return force
}
