package core

import (
	"math"
	"runtime"
	"testing"

	"gowool/internal/steal"
	"gowool/internal/trace"
)

// --- Owner-side shadow of publicLimit -------------------------------

// TestSpawnUsesOwnerShadow proves the spawn path performs zero atomic
// loads of publicLimit: the thief-visible atomic is deliberately
// desynchronized from the owner's shadow, and the public/private
// decision must follow the shadow in both directions. The pool has two
// workers — a pool of one has no public prefix to desynchronize, see
// TestOneWorkerPoolHasNoPublicPrefix — and its thief sits in
// runWithThiefBusy's gate, which occupies slot 0.
func TestSpawnUsesOwnerShadow(t *testing.T) {
	p := NewPool(Options{Workers: 2, PrivateTasks: true, InitialPublic: 2})
	defer p.Close()
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	runWithThiefBusy(p, func(w *Worker) int64 {
		if w.pubShadow != 2 || w.publicLimit.Load() != 2 {
			t.Fatalf("initial shadow/atomic = %d/%d, want 2/2", w.pubShadow, w.publicLimit.Load())
		}
		// Atomic says "nothing is public"; shadow says 2. A spawn that
		// consulted the atomic would go private.
		w.publicLimit.Store(0)
		noop.Spawn(w, 1) // top 1 < shadow 2
		if w.tasks[1].priv {
			t.Error("spawn at top=1 went private: it read the atomic publicLimit, not the shadow")
		}
		// Atomic says "everything is public"; shadow still says 2. A
		// spawn that consulted the atomic would go public.
		w.publicLimit.Store(int64(len(w.tasks)))
		noop.Spawn(w, 2) // top 2 == shadow 2
		if !w.tasks[2].priv {
			t.Error("spawn at top=2 went public: it read the atomic publicLimit, not the shadow")
		}
		// Restore the invariant before joining (the only thief is in the
		// gate, so the desync was never observable).
		w.publicLimit.Store(w.pubShadow)
		noop.Join(w)
		noop.Join(w)
		return 0
	})
}

// TestOneWorkerPoolHasNoPublicPrefix: the public prefix exists for
// thieves, and a pool of one has none — its boundary starts at 0, so
// the first spawn is already private (whatever the atomic says) and a
// whole run pays no atomic exchange; Reset restores the same boundary.
func TestOneWorkerPoolHasNoPublicPrefix(t *testing.T) {
	p := NewPool(Options{Workers: 1, PrivateTasks: true, InitialPublic: 2})
	defer p.Close()
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	fib := fibDef()
	check := func(when string) {
		t.Helper()
		p.Run(func(w *Worker) int64 {
			if w.pubShadow != 0 || w.publicLimit.Load() != 0 {
				t.Fatalf("%s: shadow/atomic = %d/%d, want 0/0", when, w.pubShadow, w.publicLimit.Load())
			}
			w.publicLimit.Store(int64(len(w.tasks)))
			noop.Spawn(w, 1) // top 0 == shadow 0
			if !w.tasks[0].priv {
				t.Errorf("%s: spawn at top=0 went public on a one-worker pool", when)
			}
			w.publicLimit.Store(w.pubShadow)
			noop.Join(w)
			return fib.Call(w, 12)
		})
	}
	check("new pool")
	if st := p.Stats(); st.JoinsInlinedPublic != 0 || st.JoinsInlinedPrivate != st.Spawns {
		t.Errorf("one-worker private pool: %d public, %d private joins of %d spawns, want 0 public", st.JoinsInlinedPublic, st.JoinsInlinedPrivate, st.Spawns)
	}
	p.Abort(nil)
	if err := p.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	check("after Reset")
}

// TestPublishMoreAllPublicLeavesLimit: a tripped wire on a pool with no
// private region (PrivateTasks off, the limit pinned at MaxInt64) must
// leave the limit alone. Adding PublishAmount to it wraps negative,
// every later spawn goes private where no thief can trip anything, and
// the pool runs serially for ever. Only thieves of a PrivateTasks pool
// used to set the flag; Abort sets it on every pool.
func TestPublishMoreAllPublicLeavesLimit(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 2, MaxIdleSleep: -1})
	defer p.Close()
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	p.Run(func(w *Worker) int64 {
		w.morePublic.Store(true)
		noop.Spawn(w, 1)
		if w.morePublic.Load() {
			t.Error("the spawn left the wire tripped")
		}
		if w.pubShadow != math.MaxInt64 || w.publicLimit.Load() != math.MaxInt64 {
			t.Errorf("tripped wire on an all-public pool moved the limit: shadow/atomic = %d/%d, want MaxInt64", w.pubShadow, w.publicLimit.Load())
		}
		noop.Join(w)
		noop.Spawn(w, 2)
		if w.tasks[w.top-1].priv {
			t.Error("spawn after the tripped wire went private on an all-public pool")
		}
		noop.Join(w)
		return 0
	})
	if st := p.Stats(); st.Publications != 0 {
		t.Errorf("all-public pool counted %d publications", st.Publications)
	}
	fib := fibDef()
	want := serialFib(20)
	for rep := 0; rep < 200 && p.Stats().Steals == 0; rep++ {
		if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 20) }); got != want {
			t.Fatalf("rep %d: fib(20) = %d, want %d", rep, got, want)
		}
	}
	if p.Stats().Steals == 0 {
		t.Error("no steal in 200 runs of fib(20) after the tripped wire: the pool went serial")
	}
}

// TestShadowTracksPublicLimit checks the owner-shadow invariant
// (pubShadow == publicLimit) across publications and privatizations on
// every worker of a steal-heavy private-task run.
func TestShadowTracksPublicLimit(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4, PrivateTasks: true,
		InitialPublic: 1, PublishAmount: 2})
	defer p.Close()
	fib := fibDef()
	for rep := 0; rep < 10; rep++ {
		if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 20) }); got != serialFib(20) {
			t.Fatalf("rep %d: wrong result %d", rep, got)
		}
	}
	st := p.Stats()
	if st.Publications == 0 && st.Privatizations == 0 && st.Steals > 10 {
		t.Log("boundary never moved; invariant check is vacuous this run")
	}
	for i, w := range p.workers {
		if pl := w.publicLimit.Load(); w.pubShadow != pl {
			t.Errorf("worker %d: pubShadow = %d, publicLimit = %d", i, w.pubShadow, pl)
		}
	}
}

// --- Trace fast-path guard -------------------------------------------

// TestTraceOverheadDisabled proves that Options.Trace == nil adds zero
// atomics to the spawn/join fast path. The argument is structural: the
// only state tracing adds to Worker is the trc ring pointer, every
// emission site in spawn/publishMore/noteInlinedPublic/trySteal/park
// is gated on a plain `trc != nil` check, and the trace package's sole
// atomic lives inside Ring.Record — unreachable through a nil ring.
// This test pins the structure (nil rings on an untraced pool) and the
// cost floor (a spawn/join pair allocates nothing with tracing off),
// so any future emission that bypasses the nil gate or adds per-event
// allocation shows up here.
func TestTraceOverheadDisabled(t *testing.T) {
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	for i, w := range p.workers {
		if w.trc != nil {
			t.Fatalf("worker %d has a trace ring on an untraced pool", i)
		}
	}
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	p.Run(func(w *Worker) int64 {
		if avg := testing.AllocsPerRun(200, func() {
			noop.Spawn(w, 1)
			noop.Join(w)
		}); avg != 0 {
			t.Errorf("spawn/join pair allocates %v objects with tracing disabled, want 0", avg)
		}
		return 0
	})
}

// TestTraceRecordsEvents runs a steal-heavy fib with tracing enabled
// and cross-checks the recorded events against the pool's counters:
// every spawn, steal and publication must appear in the rings (the
// capacity is sized so nothing is overwritten), and the steal matrix
// must agree with Stats.Steals.
func TestTraceRecordsEvents(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	tr := trace.New(4, 1<<15)
	p := NewPool(Options{Workers: 4, PrivateTasks: true,
		InitialPublic: 1, TripDistance: 1, PublishAmount: 1, Trace: tr})
	defer p.Close()
	fib := fibDef()
	if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 20) }); got != serialFib(20) {
		t.Fatalf("traced fib(20) = %d, want %d", got, serialFib(20))
	}
	p.Close() // quiesce the thief rings before reading
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("ring overwrote %d events; grow the test capacity", d)
	}
	counts := map[trace.Kind]int64{}
	for _, events := range tr.Snapshot() {
		for _, e := range events {
			counts[e.Kind]++
		}
	}
	st := p.Stats()
	if counts[trace.KindSpawn] != st.Spawns {
		t.Errorf("recorded %d SPAWN events, Stats.Spawns = %d", counts[trace.KindSpawn], st.Spawns)
	}
	if got := counts[trace.KindSteal] + counts[trace.KindLeapfrog]; got != st.Steals {
		t.Errorf("recorded %d STEAL+LEAPFROG events, Stats.Steals = %d", got, st.Steals)
	}
	if counts[trace.KindPublish] != st.Publications {
		t.Errorf("recorded %d PUBLISH events, Stats.Publications = %d", counts[trace.KindPublish], st.Publications)
	}
	if counts[trace.KindTaskStart] != counts[trace.KindTaskEnd] {
		t.Errorf("unbalanced task spans: %d starts, %d ends",
			counts[trace.KindTaskStart], counts[trace.KindTaskEnd])
	}
	if m := tr.StealMatrix(); m.Total() != st.Steals {
		t.Errorf("steal matrix total %d, Stats.Steals = %d", m.Total(), st.Steals)
	}
}

// TestStatsSnapshotQuiescentAgreement: on a quiescent pool the racy
// live accessor must agree exactly with the per-worker contract
// accessor (the raciness only exists mid-run).
func TestStatsSnapshotQuiescentAgreement(t *testing.T) {
	p := NewPool(Options{Workers: 3})
	defer p.Close()
	fib := fibDef()
	p.Run(func(w *Worker) int64 { return fib.Call(w, 15) })
	snap := p.StatsSnapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d workers, want 3", len(snap))
	}
	for i := range snap {
		if snap[i] != p.WorkerStats(i) {
			t.Errorf("worker %d: snapshot %+v != WorkerStats %+v", i, snap[i], p.WorkerStats(i))
		}
	}
}

// --- Victim selection ------------------------------------------------

// stoppedPool builds a pool whose idle loops have exited, so worker
// internals can be driven by hand without racing the real thieves.
// An idle loop that got a timeslice before Close landed has already
// called Choose/Observe, so each worker's policy is rebuilt the way
// NewPool builds it: callers start from the seed state.
func stoppedPool(t *testing.T, opts Options) *Pool {
	t.Helper()
	p := NewPool(opts)
	p.Close()
	for i, w := range p.workers {
		w.pol = steal.New(p.opts.Steal, i, p.opts.Workers)
	}
	return p
}

// The distinct-k sampling mechanics (pairwise-distinct candidates,
// enumeration when k covers the pool, single-worker degenerate case)
// are the steal package's own tests now (internal/steal TestDistinct);
// here we check the option threads through to policy construction and
// the probe wiring feeds chooseVictim real stealability.

// TestStealOptionsBuildPolicies pins the option → policy mapping: the
// default is last-victim retention (whatever the sampling width), a
// negative Steal.Retain degrades it to plain random, and an explicit
// Steal.Policy wins.
func TestStealOptionsBuildPolicies(t *testing.T) {
	cases := []struct {
		opts Options
		want string
	}{
		{Options{Workers: 2}, steal.LastVictim},
		{Options{Workers: 2, Steal: steal.Config{Policy: steal.Random}}, steal.Random},
		{Options{Workers: 2, Steal: steal.Config{Retain: -1}}, steal.Random},
		{Options{Workers: 2, Steal: steal.Config{Sampling: 3}}, steal.LastVictim},
		{Options{Workers: 2, Steal: steal.Config{Policy: steal.Sequential}}, steal.Sequential},
		{Options{Workers: 2, Steal: steal.Config{Policy: steal.Localized}}, steal.Localized},
	}
	for _, c := range cases {
		p := stoppedPool(t, c.opts)
		if got := p.workers[1].pol.Name(); got != c.want {
			t.Errorf("opts %+v built policy %q, want %q", c.opts, got, c.want)
		}
	}
}

// TestChooseVictimRetention drives the last-successful-victim policy by
// hand through the worker's probe wiring: a stealable retained victim
// is probed first; once it runs dry the policy falls back elsewhere.
// (The miss-budget drop logic itself is pinned in internal/steal
// TestLastVictimRetention.)
func TestChooseVictimRetention(t *testing.T) {
	p := stoppedPool(t, Options{Workers: 4}) // Steal.Retain defaults to 1
	w := p.workers[1]
	target := p.workers[3]

	w.pol.Observe(3, true)                 // retain worker 3
	target.tasks[0].state.Store(stateTask) // bot=0, publicLimit pinned high
	for i := 0; i < 10; i++ {
		if v := w.chooseVictim(); v != target {
			t.Fatalf("retained stealable victim not chosen: got worker %d", v.idx)
		}
	}
	if !w.pol.Observe(3, true) {
		t.Fatal("repeat success at retained victim not counted")
	}

	target.tasks[0].state.Store(stateEmpty)
	v := w.chooseVictim() // miss through the probe: retention dropped
	if v == nil || v == w {
		t.Fatalf("chooseVictim returned invalid fallback")
	}
}

// TestStealRetainDisabled checks retention off (Steal.Policy =
// steal.Random) end to end.
func TestStealRetainDisabled(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4, Steal: steal.Config{Policy: steal.Random}})
	defer p.Close()
	fib := fibDef()
	for rep := 0; rep < 3; rep++ {
		if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 21) }); got != serialFib(21) {
			t.Fatalf("rep %d: wrong result %d", rep, got)
		}
	}
	if st := p.Stats(); st.RetainedSteals != 0 {
		t.Errorf("retention disabled but RetainedSteals = %d", st.RetainedSteals)
	}
}

// TestStealRetainEnabled runs a steal-heavy workload with retention on
// and checks the accounting (hits never exceed successes, correctness
// holds across repetitions).
func TestStealRetainEnabled(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4})
	defer p.Close()
	fib := fibDef()
	for rep := 0; rep < 5; rep++ {
		if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 22) }); got != serialFib(22) {
			t.Fatalf("rep %d: wrong result %d", rep, got)
		}
	}
	st := p.Stats()
	if st.RetainedSteals > st.Steals {
		t.Errorf("RetainedSteals (%d) exceeds Steals (%d)", st.RetainedSteals, st.Steals)
	}
	t.Logf("steals=%d retained=%d", st.Steals, st.RetainedSteals)
}

// --- Trip-wire publication under contention --------------------------

// TestTripWireContentionStress keeps the public boundary as tight as
// possible (one public slot, one-slot publications) so thieves trip the
// wire on essentially every steal while the owner spawns and joins at
// the boundary. Run under -race this exercises the morePublic
// handshake; the conservation law (every spawn joined) plus correct
// results is the "no lost publications" assertion — a lost publication
// would strand spawned tasks and panic or deadlock the Run.
func TestTripWireContentionStress(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4, PrivateTasks: true,
		InitialPublic: 1, TripDistance: 1, PublishAmount: 1})
	defer p.Close()
	fib := fibDef()
	reps := 30
	if testing.Short() {
		reps = 5
	}
	want := serialFib(18)
	for rep := 0; rep < reps; rep++ {
		if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 18) }); got != want {
			t.Fatalf("rep %d: got %d, want %d", rep, got, want)
		}
	}
	st := p.Stats()
	if st.Spawns != st.Joins() {
		t.Errorf("conservation violated: spawns=%d joins=%d", st.Spawns, st.Joins())
	}
	if st.Steals > 4 && st.Publications == 0 {
		t.Errorf("thieves stole %d times at a one-slot boundary but no publications happened", st.Steals)
	}
	t.Logf("steals=%d publications=%d backoffs=%d", st.Steals, st.Publications, st.Backoffs)
}
