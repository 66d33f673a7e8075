// Package wskit is what every pooled backend shares around its two
// real decisions (where thief and victim synchronize, what is stolen):
// the pool lifecycle — the closed / running / poisoned record behind
// Run and Close — the idle back-off ladder, the trace/chaos sink size
// check, and the event counts (Counts) every Stats struct is built on.
// core, chaselev, locksched and ompstyle each used to carry
// a copy; a fix now lands once (DESIGN.md §18).
package wskit

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/poolerr"
	"gowool/internal/trace"
)

// Life is a pool's lifecycle record: closed, running (the single-root
// claim) and poisoned (first cause wins). Name prefixes the guard
// panics; set it before first use and never copy a Life afterwards.
//
// The poison record is a mutex, not the sync.Once four backends used:
// core's Reset must be able to lift it (Lift), and the one form that
// can serves all five. Writers take mu; the checks on the idle and join
// paths load poisoned alone, and only a reader that wants the cause of
// a poisoned pool takes mu, so a Lift cannot clear it under the read.
type Life struct {
	Name string
	// OnPoison, when set with Name, runs in the call that poisons the
	// pool, once the record is stored: whoever it alerts finds the cause.
	OnPoison func()

	closed  atomic.Bool
	running atomic.Bool

	mu       sync.Mutex
	cause    any // guarded by mu
	poisoned atomic.Bool
}

// Begin claims the pool for one Run, panicking when the pool is closed,
// poisoned (by an earlier task panic, or an abort not yet Reset away)
// or already running — the last with an error wrapping
// poolerr.ErrConcurrentRun. Follow it with "defer l.End()".
func (l *Life) Begin() {
	if l.closed.Load() {
		panic(l.Name + ": Run on closed Pool")
	}
	if l.poisoned.Load() {
		panic(fmt.Sprintf("%s: pool poisoned by earlier task panic: %v", l.Name, l.lockedCause()))
	}
	if !l.Claim() {
		panic(poolerr.ConcurrentRun(l.Name))
	}
}

// End must be deferred directly ("defer l.End()", so its recover sees
// the panic): a panic unwinding through Run leaves the abandoned tree's
// tasks on the workers, so it poisons the pool before it propagates;
// then the run claim is released and the original value re-raised.
func (l *Life) End() {
	r := recover()
	if r != nil {
		l.Poison(r)
	}
	l.Release()
	if r != nil {
		panic(r)
	}
}

// Claim takes the single-root claim without Begin's panics, reporting
// false when a Run holds it; core's Reset is the other claimant.
func (l *Life) Claim() bool { return l.running.CompareAndSwap(false, true) }

// Release drops the claim taken by Claim.
func (l *Life) Release() { l.running.Store(false) }

// Running reports whether the claim is held.
func (l *Life) Running() bool { return l.running.Load() }

// Poison records r as the poisoning cause unless one is already
// recorded, and reports whether this call did the poisoning.
func (l *Life) Poison(r any) bool {
	l.mu.Lock()
	first := !l.poisoned.Load()
	if first {
		l.cause = r
		l.poisoned.Store(true)
	}
	l.mu.Unlock()
	if first && l.OnPoison != nil {
		l.OnPoison()
	}
	return first
}

// Poisoned returns the recorded cause, if any.
func (l *Life) Poisoned() (cause any, poisoned bool) {
	if !l.poisoned.Load() {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cause, l.poisoned.Load()
}

// Healthy is the cheap form of !Poisoned for the idle and steal paths:
// one atomic load, no cause, no lock.
func (l *Life) Healthy() bool { return !l.poisoned.Load() }

// Rethrow re-raises the recorded cause — the original value, not a
// copy — and is a no-op on a healthy pool. Run calls it on the way out
// (a thief recovered the panic; the root still returned), and a join
// path may call it to unwind a poisoned run early.
func (l *Life) Rethrow() {
	if l.poisoned.Load() {
		panic(l.lockedCause())
	}
}

// lockedCause reads the cause for Rethrow and Begin, out of line so
// their healthy check inlines into Run and core's join path. Rethrow's
// callers hold the run claim, which the only lifter (core's Reset)
// needs, so the cause cannot vanish between their load and this read;
// a Begin racing a Reset — already a caller error — can at worst
// refuse with a blank cause.
func (l *Life) lockedCause() any {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cause
}

// Lift clears the poison record. Only a pool that can also discard the
// abandoned task trees may call it (core's Reset).
func (l *Life) Lift() {
	l.mu.Lock()
	l.cause = nil
	l.poisoned.Store(false)
	l.mu.Unlock()
}

// Shutdown marks the pool closed and reports whether this call did it,
// which is what makes Close idempotent.
func (l *Life) Shutdown() bool { return !l.closed.Swap(true) }

// Closed reports whether Shutdown has been called.
func (l *Life) Closed() bool { return l.closed.Load() }

// Live is the idle loops' continue test: neither closed nor poisoned.
// Workers must stop taking tasks of a poisoned pool — the tree they
// belong to was abandoned when Run re-raised — and a task already
// claimed always finishes, so leaving between attempts strands nobody.
func (l *Life) Live() bool { return !l.closed.Load() && !l.poisoned.Load() }

// Backoff is the idle ladder a worker climbs while consecutive steal
// attempts fail: spin, then yield, then nap 1, 2, 3 … µs capped at Max
// (the backend's MaxIdleSleep; ≤ 0 means never nap). The caller counts
// the failures and resets the count after a success.
type Backoff struct{ Max time.Duration }

// The rungs, by consecutive failures: below spinFails only spin, below
// napFails yield, from there on nap.
const (
	spinFails = 64
	napFails  = 1024
)

type rung int

const (
	rungSpin rung = iota
	rungYield
	rungNap
)

func (b Backoff) rung(fails int) rung {
	switch {
	case fails < spinFails:
		return rungSpin
	case fails < napFails || b.Max <= 0:
		return rungYield
	default:
		return rungNap
	}
}

// firstNap reports whether Step(fails) is the climb's first nap.
func (b Backoff) firstNap(fails int) bool { return fails == napFails && b.Max > 0 }

// StepNapOnly is Step for a backend without a parking engine (the four
// baselines; trc and chs are the worker's ring and agent, nil when
// off). Entering the sleep phase is such a backend's closest PARK
// analogue, so the climb's first nap records KindPark; and with no
// park/unpark protocol to force, PointParkDecision is consulted there
// for delay/yield faults only.
func (b Backoff) StepNapOnly(fails int, trc *trace.Ring, chs *chaos.Agent) {
	if b.firstNap(fails) {
		if chs != nil {
			chs.Point(chaos.PointParkDecision)
		}
		if trc != nil {
			trc.Record(trace.KindPark, 0, 0)
		}
	}
	b.Step(fails)
}

// Step backs off after the fails-th consecutive failure and returns how
// long it slept, 0 on the spin and yield rungs. The duration is the
// measured one: a sub-millisecond time.Sleep on an idle P waits out a
// 1 ms epoll_wait on Linux, so a caller budgeting idle time (core's
// park budget) must charge what the nap took, not what it asked for.
func (b Backoff) Step(fails int) time.Duration {
	switch b.rung(fails) {
	case rungSpin:
		// On a single P spinning would starve the victim.
		if runtime.GOMAXPROCS(0) == 1 {
			runtime.Gosched()
		}
	case rungYield:
		runtime.Gosched()
	default:
		d := time.Duration(fails-napFails+1) * time.Microsecond
		if d > b.Max {
			d = b.Max
		}
		t0 := time.Now()
		time.Sleep(d)
		return time.Since(t0)
	}
	return 0
}

// CheckSinks panics unless the tracer and the injector (either may be
// nil) have a ring, respectively an agent, for each of workers workers:
// both are indexed by worker and single-writer per index.
func CheckSinks(name string, workers int, tr *trace.Tracer, inj *chaos.Injector) {
	if tr != nil && tr.Workers() < workers {
		panic(fmt.Sprintf("%s: Options.Trace has %d rings for %d workers; create it with trace.New(Workers, capacity)",
			name, tr.Workers(), workers))
	}
	if inj != nil && inj.Workers() < workers {
		panic(fmt.Sprintf("%s: Options.Chaos has %d agents for %d workers; create it with chaos.NewInjector(Workers, profile, seed)",
			name, inj.Workers(), workers))
	}
}
