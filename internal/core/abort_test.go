package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gowool/internal/poolerr"
)

// spinUntilAborted builds a root that spawns/joins forever: each
// iteration is one public spawn + call + join, so the only way out is
// the abort token observed at a generic join. Returns the task so the
// test keeps it alive.
func spinUntilAborted(p *Pool) func(*Worker) int64 {
	leaf := Define1("abort-leaf", func(w *Worker, x int64) int64 { return x })
	return func(w *Worker) int64 {
		var acc int64
		for {
			leaf.Spawn(w, 1)
			acc += leaf.Call(w, 2)
			acc += leaf.Join(w)
		}
	}
}

// TestAbortUnwindsRun: Abort from another goroutine must unwind an
// in-flight Run with the *poolerr.AbortError carrying the reason, and
// Reset must then return the pool to service.
func TestAbortUnwindsRun(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 2})
	defer p.Close()

	reason := errors.New("request deadline exceeded")
	go func() {
		time.Sleep(5 * time.Millisecond)
		p.Abort(reason)
	}()
	r := mustPanic(t, "aborted Run", func() {
		p.Run(spinUntilAborted(p))
	})
	ae, ok := r.(*poolerr.AbortError)
	if !ok {
		t.Fatalf("aborted Run panicked with %T (%v), want *poolerr.AbortError", r, r)
	}
	if !errors.Is(ae, reason) {
		t.Fatalf("AbortError unwraps to %v, want %v", ae.Reason, reason)
	}
	if _, poisoned := p.Poisoned(); !poisoned {
		t.Fatal("pool not poisoned after Abort unwound the Run")
	}
	if err := p.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if _, poisoned := p.Poisoned(); poisoned {
		t.Fatal("pool still poisoned after Reset")
	}

	fib := fibDef()
	got := p.Run(func(w *Worker) int64 { return fib.Call(w, 20) })
	if want := serialFib(20); got != want {
		t.Fatalf("post-Reset fib(20) = %d, want %d", got, want)
	}
}

// TestResetRevivesPanickedPool: a genuine task panic poisons the pool;
// Reset must discard the abandoned tree and revive it, repeatedly.
func TestResetRevivesPanickedPool(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4})
	defer p.Close()

	var boom *TaskDef1
	boom = Define1("reset-boom", func(w *Worker, depth int64) int64 {
		if depth == 0 {
			panic("reset boom")
		}
		boom.Spawn(w, depth-1)
		boom.Call(w, depth-1)
		boom.Join(w)
		return 0
	})
	fib := fibDef()
	want := serialFib(18)
	for round := 0; round < 3; round++ {
		r := mustPanic(t, "panicking Run", func() {
			p.Run(func(w *Worker) int64 { return boom.Call(w, 8) })
		})
		if fmt.Sprint(r) != "reset boom" {
			t.Fatalf("round %d: Run re-raised %v, want reset boom", round, r)
		}
		if cause, poisoned := p.Poisoned(); !poisoned || fmt.Sprint(cause) != "reset boom" {
			t.Fatalf("round %d: Poisoned() = %v, %v", round, cause, poisoned)
		}
		if err := p.Reset(); err != nil {
			t.Fatalf("round %d: Reset: %v", round, err)
		}
		if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 18) }); got != want {
			t.Fatalf("round %d: post-Reset fib(18) = %d, want %d", round, got, want)
		}
	}
}

// TestResetNotPoisonedIsNoop: Reset on a healthy pool returns nil and
// leaves it usable.
func TestResetNotPoisonedIsNoop(t *testing.T) {
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	if err := p.Reset(); err != nil {
		t.Fatalf("Reset on healthy pool: %v", err)
	}
	fib := fibDef()
	if got, want := p.Run(func(w *Worker) int64 { return fib.Call(w, 15) }), serialFib(15); got != want {
		t.Fatalf("fib(15) = %d, want %d", got, want)
	}
}

// TestClosePoisonedPoolWithParking is the satellite regression for the
// poison→park leak: with Parking enabled, a pool poisoned by a task
// panic has its idle workers blocked on the poison gate (or parked on
// the idle engine); Close must release all of them and return. Run
// under -race in CI.
func TestClosePoisonedPoolWithParking(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4, Parking: ParkOn, MaxIdleSleep: 50 * time.Microsecond})

	var boom *TaskDef1
	boom = Define1("park-boom", func(w *Worker, depth int64) int64 {
		if depth == 0 {
			panic("park boom")
		}
		boom.Spawn(w, depth-1)
		boom.Call(w, depth-1)
		boom.Join(w)
		return 0
	})
	mustPanic(t, "poisoning Run", func() {
		p.Run(func(w *Worker) int64 { return boom.Call(w, 10) })
	})

	// Give the idle workers time to reach the poison gate (or the idle
	// engine's park), so Close exercises the release of both.
	time.Sleep(20 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on a poisoned pool with Parking enabled (poison→park leak)")
	}
}

// TestConcurrentRunTypedError: the concurrent-Run guard must panic
// with the shared sentinel so callers can recognize it across
// backends.
func TestConcurrentRunTypedError(t *testing.T) {
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	inFirst := make(chan struct{})
	release := make(chan struct{})
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		p.Run(func(w *Worker) int64 {
			close(inFirst)
			<-release
			return 0
		})
	}()
	<-inFirst
	r := mustPanic(t, "second Run", func() {
		p.Run(func(w *Worker) int64 { return 0 })
	})
	close(release)
	<-firstDone
	err, ok := r.(error)
	if !ok || !errors.Is(err, poolerr.ErrConcurrentRun) {
		t.Fatalf("second Run panicked with %T (%v), want an error wrapping poolerr.ErrConcurrentRun", r, r)
	}
}

// TestAbortTripsTheWire pins the fourth abort observation point
// (DESIGN.md §16.2): the Abort that poisons stores morePublic on every
// worker, after the poison; the owner's next spawn — the generated fast
// path declines a spawn while the flag is up — reaches publishMore,
// which clears the flag and then re-raises. So the spawn after an Abort
// never happens, on any pool shape, and neither the flag nor a moved
// limit outlives Reset.
func TestAbortTripsTheWire(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, private := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("private=%v/workers=%d", private, workers), func(t *testing.T) {
				p := NewPool(Options{Workers: workers, PrivateTasks: private})
				defer p.Close()
				noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
				reason := errors.New("request deadline exceeded")
				limit := p.workers[0].pubShadow
				spawned := false
				r := mustPanic(t, "aborted Run", func() {
					p.Run(func(w *Worker) int64 {
						if !p.Abort(reason) {
							t.Error("Abort on a healthy running pool returned false")
						}
						for i, v := range p.workers {
							if !v.morePublic.Load() {
								t.Errorf("Abort left worker %d's wire untripped", i)
							}
						}
						if w.SpawnPrepPrivate() != nil || w.BatchPrepPrivate(4) != nil {
							t.Error("the generated fast path took a spawn with the wire tripped")
						}
						noop.Spawn(w, 1)
						spawned = true
						return noop.Join(w)
					})
				})
				if ae, ok := r.(*poolerr.AbortError); !ok || !errors.Is(ae, reason) {
					t.Fatalf("aborted Run panicked with %T (%v), want the *poolerr.AbortError of the Abort", r, r)
				}
				if spawned {
					t.Error("the spawn after Abort returned went through")
				}
				w0 := p.workers[0]
				if w0.morePublic.Load() {
					t.Error("the owner re-raised without clearing its flag first")
				}
				if w0.pubShadow != limit || w0.stats.Publications != 0 {
					t.Errorf("the abort's trip moved the limit: %d -> %d, %d publications", limit, w0.pubShadow, w0.stats.Publications)
				}
				if p.Abort(errors.New("second")) {
					t.Error("second Abort on a poisoned pool returned true")
				}
				if err := p.Reset(); err != nil {
					t.Fatalf("Reset: %v", err)
				}
				for i, v := range p.workers {
					if v.morePublic.Load() {
						t.Errorf("worker %d's wire still tripped after Reset", i)
					}
				}
				fib := fibDef()
				if got, want := p.Run(func(w *Worker) int64 { return fib.Call(w, 16) }), serialFib(16); got != want {
					t.Fatalf("post-Reset fib(16) = %d, want %d", got, want)
				}
			})
		}
	}
}

// TestStolenPanicTripsTheWire: a task panic recovered on a thief poisons
// the pool and trips the wires like an Abort, so an owner deep in a
// private stretch — hand-driven here through the fast-path API, as
// generated code drives it: no poll on that path — unwinds at its next
// spawn instead of running on to Run's exit.
func TestStolenPanicTripsTheWire(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 2, PrivateTasks: true, MaxIdleSleep: -1})
	defer p.Close()
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	started := make(chan struct{})
	armed := make(chan struct{})
	bomb := Define1("bomb", func(w *Worker, x int64) int64 {
		close(started)
		<-armed
		panic("boom")
	})
	const bound = 1 << 28 // a second or two of private pairs; the wire ends it in microseconds
	pairs := 0
	r := mustPanic(t, "Run with a panicking stolen task", func() {
		p.Run(func(w *Worker) int64 {
			bomb.Spawn(w, 0) // slot 0, public
			<-started        // worker 1 has it
			noop.Spawn(w, 0) // slot 1, the rest of the public prefix
			close(armed)
			for ; pairs < bound; pairs++ {
				tk := w.SpawnPrepPrivate()
				if tk == nil {
					noop.Spawn(w, 1) // the generic path: where the wire is answered
					noop.Join(w)
					continue
				}
				tk.Set1(noop.wrap, 1)
				w.SpawnCommitPrivate(tk)
				if w.JoinPrepPrivate() == nil {
					t.Error("private spawn was not joined privately")
				}
			}
			noop.Join(w)
			return bomb.Join(w)
		})
	})
	if r != "boom" {
		t.Fatalf("Run re-raised %v, want the stolen task's panic value", r)
	}
	if pairs == bound {
		t.Fatal("the owner ran its whole private stretch after the thief's task panicked")
	}
}

// TestOwnerPanicTripsTheWire is the mirror case: the panic is on the
// owner's side, so the poisoning is the one Run does on its way out. A
// thief deep in a stolen task's private stretch must answer it at its
// next spawn, or Reset — and everything queued behind it — waits out
// the whole stretch.
func TestOwnerPanicTripsTheWire(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 2, PrivateTasks: true, MaxIdleSleep: -1})
	defer p.Close()
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	const bound = 1 << 28 // a second or two of private pairs; the wire ends it in microseconds
	started := make(chan struct{})
	var pairs atomic.Int64
	stretch := Define1("stretch", func(w *Worker, x int64) int64 {
		n := int64(0)
		defer func() { pairs.Store(n) }() // on the wire's re-raise too
		noop.Spawn(w, 0)                  // slots 0 and 1: the thief's own public prefix
		noop.Spawn(w, 0)
		close(started)
		for ; n < bound; n++ {
			tk := w.SpawnPrepPrivate()
			if tk == nil {
				noop.Spawn(w, 1) // the generic path: where the wire is answered
				noop.Join(w)
				continue
			}
			tk.Set1(noop.wrap, 1)
			w.SpawnCommitPrivate(tk)
			if w.JoinPrepPrivate() == nil {
				t.Error("private spawn was not joined privately")
			}
		}
		noop.Join(w)
		return noop.Join(w)
	})
	r := mustPanic(t, "Run whose root panics", func() {
		p.Run(func(w *Worker) int64 {
			stretch.Spawn(w, 0) // slot 0, public
			<-started           // worker 1 has it, and is past its prefix
			time.Sleep(time.Millisecond)
			panic("boom")
		})
	})
	if r != "boom" {
		t.Fatalf("Run re-raised %v, want the root's panic value", r)
	}
	reset := make(chan error, 1)
	go func() { reset <- p.Reset() }()
	select {
	case err := <-reset:
		if err != nil {
			t.Fatalf("Reset: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Reset still waiting for the thief 30 s after the root panicked")
	}
	if pairs.Load() == bound {
		t.Fatal("the thief ran its whole private stretch after the root panicked")
	}
	fib := fibDef()
	if got, want := p.Run(func(w *Worker) int64 { return fib.Call(w, 16) }), serialFib(16); got != want {
		t.Fatalf("post-Reset fib(16) = %d, want %d", got, want)
	}
}
