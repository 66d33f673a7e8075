package sched_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gowool/internal/sched"
	"gowool/internal/trace"
)

// panicJob builds a binary tree RecJob whose bombIndex-th leaf panics
// with val; every other leaf returns 1.
func panicJob(height int64, bombIndex int64, val any) sched.RecJob {
	var leafNo atomic.Int64
	return sched.RecJob{
		Name: "panic-tree", Root: height,
		Leaf: func(h int64) (int64, bool) {
			if h > 0 {
				return 0, false
			}
			if leafNo.Add(1)-1 == bombIndex {
				panic(val)
			}
			return 1, true
		},
		Split: func(h int64) (inline, spawned int64) { return h - 1, h - 1 },
	}
}

// recoverFrom runs f and returns what it panicked with (nil = no panic).
func recoverFrom(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// closeWithin fails the test if p.Close does not return in time — the
// signature of a worker goroutine killed by an unrecovered panic.
func closeWithin(t *testing.T, name string, p *sched.Pool) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: Close hung after a task panic", name)
	}
}

// TestPanicInRootPropagates: a panic raised in the root region of the
// computation (the very first leaf, before any task can be spawned or
// stolen) must surface from RunRec on every backend — not corrupt the
// pool silently. Pooled backends must then be poisoned against reuse;
// the goroutine baseline has no pool state, so reuse keeps working.
func TestPanicInRootPropagates(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, s := range sched.All() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			p := s.NewPool(sched.Options{Workers: 4})
			j := panicJob(4, 0, "root boom")
			r := recoverFrom(func() { p.RunRec(j) })
			if r == nil {
				t.Fatal("panic did not propagate from RunRec")
			}
			if fmt.Sprint(r) != "root boom" {
				t.Fatalf("RunRec re-raised %v, want root boom", r)
			}
			if p.Native() != nil {
				r = recoverFrom(func() { p.RunRec(panicJob(4, -1, nil)) })
				if r == nil {
					t.Fatal("poisoned pool accepted another RunRec")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "pool poisoned by earlier task panic") {
					t.Fatalf("poisoned RunRec panicked with %v, want the poisoned message", r)
				}
			} else {
				// No pool state to poison: the baseline must keep working.
				if got := p.RunRec(panicJob(4, -1, nil)); got != 16 {
					t.Fatalf("post-panic RunRec = %d, want 16", got)
				}
			}
			closeWithin(t, s.Name(), p)
		})
	}
}

// TestPanicInSpawnedLeafPropagates: a panic deep in the task tree —
// inside work that is routinely spawned, stolen and joined — must
// re-raise from RunRec on every backend with the original panic value,
// and Close must still complete (no worker goroutine may die holding
// the panic). Run under -race this also checks the recover/transfer
// paths are properly synchronized.
func TestPanicInSpawnedLeafPropagates(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	type marker struct{ which string }
	for _, s := range sched.All() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			want := &marker{which: s.Name()}
			p := s.NewPool(sched.Options{Workers: 4})
			// Height 8 = 256 leaves; the bomb sits mid-tree so plenty of
			// spawns precede and follow it in program order.
			j := panicJob(8, 100, want)
			r := recoverFrom(func() { p.RunRec(j) })
			if r == nil {
				t.Fatal("panic did not propagate from RunRec")
			}
			if r != want {
				t.Fatalf("RunRec re-raised %v, want the original panic value", r)
			}
			closeWithin(t, s.Name(), p)
		})
	}
}

// thiefBombJob is a two-leaf tree that puts a panic on the thief side
// whichever way the backend steals (child or continuation): the first
// leaf to arrive waits, up to 5 ms, for the second, then arms it; the
// second spins until armed and panics with val. Two leaves active at
// once are on two workers, so when stolen reads true after the run the
// bomb went off beside a live waiter — in all but a freak schedule the
// caller of RunRec, which then has to get through its join.
func thiefBombJob(val any, stolen *atomic.Bool) sched.RecJob {
	var arrivals atomic.Int32
	var started, armed atomic.Bool
	return sched.RecJob{
		Name: "thief-bomb", Root: 1,
		Leaf: func(n int64) (int64, bool) {
			if n > 0 {
				return 0, false
			}
			if arrivals.Add(1) == 1 {
				deadline := time.Now().Add(5 * time.Millisecond)
				for !started.Load() && time.Now().Before(deadline) {
					runtime.Gosched()
				}
				stolen.Store(started.Load())
				armed.Store(true)
				return 1, true
			}
			started.Store(true)
			for !armed.Load() {
				runtime.Gosched()
			}
			panic(val)
		},
		Split: func(int64) (inline, spawned int64) { return 0, 0 },
	}
}

// TestPanicOnThiefSidePropagates forces a task panic onto a thief on
// every pooled backend and checks the whole abort path: the thief's
// recover still completes the task so the owner's join unblocks (the
// panic-deadlock bug), RunRec re-raises the original value, the pool is
// poisoned against reuse, and Close returns (no dead worker). Replaces
// the four per-backend TestStolen*PanicPropagates copies.
func TestPanicOnThiefSidePropagates(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	type marker struct{ which string }
	for _, s := range sched.All() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			for attempt := 0; attempt < 30; attempt++ {
				p := s.NewPool(sched.Options{Workers: 2, MaxIdleSleep: -1})
				if p.Native() == nil {
					p.Close()
					t.Skip("no pool, no thieves: TestPanicInSpawnedLeafPropagates covers the goroutine baseline")
				}
				want := &marker{which: s.Name()}
				var stolen atomic.Bool
				if r := recoverFrom(func() { p.RunRec(thiefBombJob(want, &stolen)) }); r != want {
					t.Fatalf("RunRec re-raised %v, want the original panic value", r)
				}
				r := recoverFrom(func() { p.RunRec(panicJob(2, -1, nil)) })
				if msg := fmt.Sprint(r); r == nil || !strings.Contains(msg, "pool poisoned by earlier task panic") {
					t.Fatalf("poisoned RunRec panicked with %v, want the poisoned message", r)
				}
				closeWithin(t, s.Name(), p)
				if stolen.Load() {
					return // the thief-side abort path ran; done
				}
			}
			t.Log("bomb was never stolen in 30 attempts; inline panic path exercised instead")
		})
	}
}

// TestTraceConformance: every backend claiming Caps.Trace must accept
// a tracer without changing results and must record events into it (at
// least its idle workers' PARK transitions after the run); backends
// without the capability must leave the tracer untouched.
func TestTraceConformance(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, s := range sched.All() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			tr := trace.New(4, 1<<12)
			p := s.NewPool(sched.Options{Workers: 4, Trace: tr})
			j := sched.RecJob{
				Name: "tree", Root: 10,
				Leaf: func(h int64) (int64, bool) {
					if h == 0 {
						return 1, true
					}
					return 0, false
				},
				Split: func(h int64) (inline, spawned int64) { return h - 1, h - 1 },
			}
			if got := p.RunRec(j); got != 1<<10 {
				t.Fatalf("traced RunRec = %d, want %d", got, 1<<10)
			}
			if !s.Caps().Trace {
				p.Close()
				if n := countEvents(tr); n != 0 {
					t.Fatalf("Caps.Trace false but %d events were recorded", n)
				}
				return
			}
			// Idle workers reach their sleep phase (PARK) within a few
			// thousand failed steal attempts; give them a moment.
			deadline := time.Now().Add(2 * time.Second)
			for countEvents(tr) == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			p.Close()
			if n := countEvents(tr); n == 0 {
				t.Fatal("Caps.Trace set but no events were recorded")
			}
		})
	}
}

func countEvents(tr *trace.Tracer) int {
	n := 0
	for _, evs := range tr.Snapshot() {
		n += len(evs)
	}
	return n
}
