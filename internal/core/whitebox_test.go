package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// White-box tests: drive the thief side of the descriptor protocol by
// hand so the join slow paths — which depend on precise interleavings
// — are exercised deterministically rather than probabilistically.

// runWithThiefBusy runs body on worker 0 of the two-worker pool p while
// worker 1 sits inside a stolen gate task, blocked on a channel: a test
// that plays the thief by hand on body's descriptors is then the only
// thief there is — the real one would otherwise win the hand-driven CAS
// now and then. The gate is joined after body, so the run accounts one
// stolen join more than body's own.
func runWithThiefBusy(p *Pool, body func(w *Worker) int64) int64 {
	stolen := make(chan struct{})
	release := make(chan struct{})
	gate := Define1("gate", func(w *Worker, x int64) int64 {
		close(stolen) // on worker 1: the owner does not join before this
		<-release
		return x
	})
	return p.Run(func(w *Worker) int64 {
		gate.Spawn(w, 0) // the first stealable descriptor: wakes a parked thief
		<-stolen
		r := body(w)
		close(release)
		gate.Join(w)
		return r
	})
}

// TestJoinSlowThiefBacksOff covers the transient-EMPTY → restored-TASK
// path: the owner's join finds a thief mid-steal; the thief backs off
// (restores TASK); the owner must claim and inline the task.
func TestJoinSlowThiefBacksOff(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	val := Define1("val", func(w *Worker, x int64) int64 { return x * 3 })
	got := runWithThiefBusy(p, func(w *Worker) int64 {
		val.Spawn(w, 7)
		tk := &w.tasks[w.top-1]
		// Simulate a thief's claim (CAS TASK→EMPTY)…
		if !tk.state.CompareAndSwap(stateTask, stateEmpty) {
			t.Fatal("setup: task not in TASK state")
		}
		// …and a delayed back-off restore, as after a bot mismatch.
		go func() {
			time.Sleep(200 * time.Microsecond)
			tk.state.Store(stateTask)
		}()
		return val.Join(w) // must spin on EMPTY, then claim the restore
	})
	if got != 21 {
		t.Errorf("join after back-off = %d, want 21", got)
	}
	// The owner claims the restored task (the real thief is in the
	// gate, whose join is the stolen one).
	if st := p.Stats(); st.JoinsInlinedPublic != 1 || st.JoinsStolen != 1 {
		t.Errorf("joins inlined=%d stolen=%d, want 1 (the restored task) and 1 (the gate)",
			st.JoinsInlinedPublic, st.JoinsStolen)
	}
}

// TestJoinSlowFindsDone covers the DONE fast-out: the thief completed
// the task before the owner's join even looked.
func TestJoinSlowFindsDone(t *testing.T) {
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	val := Define1("val", func(w *Worker, x int64) int64 { return x + 1 })
	got := runWithThiefBusy(p, func(w *Worker) int64 {
		val.Spawn(w, 9)
		tk := &w.tasks[w.top-1]
		// Simulate a complete steal by worker 1.
		if !tk.state.CompareAndSwap(stateTask, stateEmpty) {
			t.Fatal("setup: task not stealable")
		}
		tk.state.Store(stolenState(1))
		w.bot.Store(w.bot.Load() + 1)
		tk.res = 10 // the thief's result
		tk.state.Store(stateDone)
		return val.Join(w)
	})
	if got != 10 {
		t.Errorf("join of completed steal = %d, want 10", got)
	}
	if st := p.Stats(); st.JoinsStolen != 2 {
		t.Errorf("stolen joins = %d, want 2 (the completed steal and the gate)", st.JoinsStolen)
	}
}

// TestJoinSlowWaitsForThief covers the STOLEN → leapfrog wait: the
// thief is still running; the owner leapfrogs (finding nothing to
// steal) until DONE appears.
func TestJoinSlowWaitsForThief(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	val := Define1("val", func(w *Worker, x int64) int64 { return x })
	got := runWithThiefBusy(p, func(w *Worker) int64 {
		val.Spawn(w, 5)
		tk := &w.tasks[w.top-1]
		if !tk.state.CompareAndSwap(stateTask, stateEmpty) {
			t.Fatal("setup: task not stealable")
		}
		tk.state.Store(stolenState(1))
		w.bot.Store(w.bot.Load() + 1)
		go func() {
			time.Sleep(300 * time.Microsecond)
			tk.res = 55
			tk.state.Store(stateDone)
		}()
		return val.Join(w)
	})
	if got != 55 {
		t.Errorf("join of in-flight steal = %d, want 55", got)
	}
}

// TestRecordPanicFromStolenTask forces a panic on the thief side so
// the pool-abort path (Life.Poison + re-raise from Run) runs: the
// bomb task spins until released, guaranteeing the thief picked it up
// before it detonates.
func TestRecordPanicFromStolenTask(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for attempt := 0; attempt < 30; attempt++ {
		p := NewPool(Options{Workers: 2, MaxIdleSleep: -1})
		var armed, started atomic.Bool
		bomb := Define1("bomb", func(w *Worker, x int64) int64 {
			started.Store(true)
			for !armed.Load() {
				runtime.Gosched()
			}
			panic("boom")
		})
		var stolen bool
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatal("panic did not propagate")
				} else if r != "boom" {
					t.Fatalf("wrong panic value %v", r)
				}
			}()
			p.Run(func(w *Worker) int64 {
				bomb.Spawn(w, 1)
				// Give the thief a window to take and start the bomb.
				deadline := time.Now().Add(5 * time.Millisecond)
				for !started.Load() && time.Now().Before(deadline) {
					runtime.Gosched()
				}
				stolen = started.Load()
				armed.Store(true)
				return bomb.Join(w)
			})
		}()
		p.Close()
		if stolen {
			return // the thief-side abort path ran; done
		}
	}
	t.Log("bomb was never stolen in 30 attempts; inline panic path exercised instead")
}

// TestStolenStateEncoding pins the STOLEN(thief) packing at its
// boundaries: every thief index NewPool can hand out (bounded by
// maxWorkers) must survive the stolenState/stolenThief round trip, and
// the non-stolen states must never read as stolen.
func TestStolenStateEncoding(t *testing.T) {
	for _, thief := range []int{0, 1, 255, 256, 1 << 20, int(maxWorkers - 1)} {
		s := stolenState(thief)
		if !isStolen(s) {
			t.Errorf("stolenState(%d) = %#x does not read as stolen", thief, s)
		}
		if got := stolenThief(s); got != thief {
			t.Errorf("stolenThief(stolenState(%d)) = %d", thief, got)
		}
	}
	for _, s := range []uint64{stateEmpty, stateDone, stateTask} {
		if isStolen(s) {
			t.Errorf("state %#x reads as stolen", s)
		}
	}
	if uint64(int(maxWorkers)) != maxWorkers {
		t.Fatalf("maxWorkers %d does not fit in int", maxWorkers)
	}
}

// TestWorkersBoundRejected verifies NewPool rejects worker counts the
// state encoding cannot name, before allocating anything.
func TestWorkersBoundRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool accepted Workers > maxWorkers")
		}
	}()
	NewPool(Options{Workers: int(maxWorkers) + 1})
}
