package core

import (
	"runtime"
	"testing"
	"time"

	"gowool/internal/steal"
)

func TestStateEncoding(t *testing.T) {
	for _, thief := range []int{0, 1, 7, 63, 1000} {
		s := stolenState(thief)
		if !isStolen(s) {
			t.Errorf("stolenState(%d) not recognized as stolen", thief)
		}
		if got := stolenThief(s); got != thief {
			t.Errorf("stolenThief(stolenState(%d)) = %d", thief, got)
		}
	}
	for _, s := range []uint64{stateEmpty, stateDone, stateTask} {
		if isStolen(s) {
			t.Errorf("state %#x wrongly classified as stolen", s)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.Defaults()
	if o.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers default = %d", o.Workers)
	}
	if o.StackSize != 8192 || o.InitialPublic != 2 || o.TripDistance != 1 ||
		o.PublishAmount != 2 {
		t.Errorf("unexpected defaults: %+v", o)
	}
	if o.MaxIdleSleep != 200*time.Microsecond {
		t.Errorf("MaxIdleSleep default = %v", o.MaxIdleSleep)
	}
	if o.Steal.Policy != steal.LastVictim || o.Steal.Retain != 1 || o.Steal.Sampling != 1 {
		t.Errorf("Steal default = %+v, want last-victim, Retain 1, Sampling 1", o.Steal)
	}
	// Negative sleep (never sleep) must survive Defaults.
	if n := (Options{MaxIdleSleep: -1}).Defaults(); n.MaxIdleSleep != -1 {
		t.Errorf("negative MaxIdleSleep rewritten to %v", n.MaxIdleSleep)
	}
	// Explicit settings survive Defaults.
	if n := (Options{Steal: steal.Config{Policy: steal.Random, Retain: -1}}).Defaults(); n.Steal.Policy != steal.Random || n.Steal.Retain != -1 {
		t.Errorf("explicit Steal rewritten to %+v", n.Steal)
	}
}

func TestLockOSThreadOption(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 2, LockOSThread: true})
	defer p.Close()
	fib := fibDef()
	if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 15) }); got != serialFib(15) {
		t.Errorf("LockOSThread run wrong: %d", got)
	}
}

func TestWorkerAccessors(t *testing.T) {
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	p.Run(func(w *Worker) int64 {
		if w.Index() != 0 {
			t.Errorf("run worker index = %d", w.Index())
		}
		if w.Pool() != p {
			t.Error("worker Pool() mismatch")
		}
		return 0
	})
	if p.Workers() != 2 {
		t.Errorf("Workers() = %d", p.Workers())
	}
}

func TestPrivatizationShrinksBoundary(t *testing.T) {
	// The pull-down (revocable cut-off) triggers only once trip-wire
	// publications have pushed the boundary above top+headroom and a
	// long run of inlined public joins follows. Drive that with
	// steal-heavy repetitions; the interleaving is scheduling
	// dependent, so retry until observed.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4, PrivateTasks: true,
		InitialPublic: 1, PublishAmount: 8})
	defer p.Close()
	fib := fibDef()
	for i := 0; i < 100; i++ {
		if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 18) }); got != serialFib(18) {
			t.Fatalf("rep %d: wrong result %d", i, got)
		}
		st := p.Stats()
		if st.Privatizations > 0 {
			if st.Publications == 0 {
				t.Error("privatizations without publications cannot happen")
			}
			return
		}
	}
	st := p.Stats()
	if st.Steals > 50 {
		t.Errorf("no privatizations after %d steals and 100 reps (publications=%d)",
			st.Steals, st.Publications)
	} else {
		t.Log("too few steals to exercise privatization on this host; skipping")
	}
}

// TestPrivatizeRunThreshold pins the revocable cut-off without a thief:
// on a one-worker PrivateTasks pool the test raises the boundary by hand
// (as publications would), then inlines public joins at one depth. The
// privatizeRun-th consecutive inlined public join pulls the boundary
// back to top+InitialPublic; a publication midway restarts the count.
func TestPrivatizeRunThreshold(t *testing.T) {
	p := NewPool(Options{Workers: 1, PrivateTasks: true})
	defer p.Close()
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	check := func(w *Worker, when string, privs, limit int64) {
		t.Helper()
		if got := w.stats.Privatizations; got != privs {
			t.Errorf("%s: Privatizations = %d, want %d", when, got, privs)
		}
		if w.pubShadow != limit || w.publicLimit.Load() != limit {
			t.Errorf("%s: shadow/limit = %d/%d, want %d", when, w.pubShadow, w.publicLimit.Load(), limit)
		}
	}
	joins := func(w *Worker, n int) {
		for i := 0; i < n; i++ {
			noop.Spawn(w, int64(i))
			if w.tasks[w.top-1].priv {
				t.Fatal("spawn below the raised boundary went private")
			}
			noop.Join(w)
		}
	}
	p.Run(func(w *Worker) int64 {
		w.pubShadow = 64
		w.publicLimit.Store(64)
		joins(w, privatizeRun/2)
		w.publishMore()
		check(w, "after publishMore", 0, 64+int64(p.opts.PublishAmount))
		joins(w, privatizeRun-1)
		check(w, "after privatizeRun-1 joins", 0, 64+int64(p.opts.PublishAmount))
		joins(w, 1)
		check(w, "after privatizeRun joins", 1, int64(w.top+p.opts.InitialPublic))
		return 0
	})
	if st := p.Stats(); st.JoinsInlinedPublic != int64(privatizeRun/2+privatizeRun) || st.Publications != 1 {
		t.Errorf("JoinsInlinedPublic/Publications = %d/%d, want %d/1", st.JoinsInlinedPublic, st.Publications, privatizeRun/2+privatizeRun)
	}
}

func TestTripDistanceConfig(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, trip := range []int{1, 2, 4} {
		p := NewPool(Options{Workers: 4, PrivateTasks: true, TripDistance: trip})
		fib := fibDef()
		for i := 0; i < 3; i++ {
			if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 20) }); got != serialFib(20) {
				t.Errorf("trip=%d: wrong result %d", trip, got)
			}
		}
		p.Close()
	}
}

func TestDeepNesting(t *testing.T) {
	// A purely sequential chain of nested spawns: exercises the stack
	// discipline at depth (each level spawns one child, joins it).
	p := NewPool(Options{Workers: 1, StackSize: 4096})
	defer p.Close()
	var chain *TaskDef1
	chain = Define1("chain", func(w *Worker, depth int64) int64 {
		if depth == 0 {
			return 1
		}
		chain.Spawn(w, depth-1)
		return chain.Join(w) + 1
	})
	if got := p.Run(func(w *Worker) int64 { return chain.Call(w, 4000) }); got != 4001 {
		t.Errorf("chain = %d, want 4001", got)
	}
}

func TestResultContextTask(t *testing.T) {
	// rctx round trip: tasks that need to hand back a pointer result do
	// so through the ctx they were given; res carries the scalar.
	type out struct{ v []int64 }
	var fill *TaskDefC1[out]
	fill = DefineC1("fill", func(w *Worker, o *out, n int64) int64 {
		o.v = make([]int64, n)
		for i := range o.v {
			o.v[i] = int64(i)
		}
		return n
	})
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	o := &out{}
	got := p.Run(func(w *Worker) int64 {
		fill.Spawn(w, o, 10)
		return fill.Join(w)
	})
	if got != 10 || len(o.v) != 10 || o.v[9] != 9 {
		t.Errorf("context result wrong: got=%d out=%v", got, o.v)
	}
}

// TestManySmallRunsStressShutdown exercises pool startup/shutdown and
// the quiescent steal loops between runs.
func TestManySmallRunsStressShutdown(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for i := 0; i < 20; i++ {
		p := NewPool(Options{Workers: 3})
		fib := fibDef()
		if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 10) }); got != 55 {
			t.Fatalf("iteration %d: got %d", i, got)
		}
		p.Close()
	}
}

func TestStealSamplingCorrectness(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, k := range []int{1, 2, 4} {
		p := NewPool(Options{Workers: 4, Steal: steal.Config{Sampling: k}, PrivateTasks: true})
		fib := fibDef()
		for rep := 0; rep < 3; rep++ {
			if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 20) }); got != serialFib(20) {
				t.Errorf("sampling=%d: wrong result %d", k, got)
			}
		}
		p.Close()
	}
}
