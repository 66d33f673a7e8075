package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// stuckJoin runs one Run whose only join waits on a forged STOLEN(0)
// descriptor (a thief that claimed the task and died, as in
// TestWatchdogTripsOnStuckJoin) and returns what it panicked with and
// how long after entering the join.
func stuckJoin(p *Pool) (r any, blocked time.Duration) {
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	var entered time.Time
	func() {
		defer func() { r = recover() }()
		p.Run(func(w *Worker) int64 {
			noop.Spawn(w, 7)
			w.tasks[0].state.Swap(stolenState(0))
			entered = time.Now()
			return noop.Join(w)
		})
	}()
	return r, time.Since(entered)
}

// forgedWindow runs one Run whose join meets a forged thief's transient
// window (state EMPTY) that release ends by restoring TASK.
func forgedWindow(p *Pool, release func(restore func())) (r any) {
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	defer func() { r = recover() }()
	p.Run(func(w *Worker) int64 {
		noop.Spawn(w, 7)
		t := &w.tasks[0]
		t.state.Swap(stateEmpty)
		release(func() { t.state.Store(stateTask) })
		return noop.Join(w)
	})
	return nil
}

// TestWatchdogVerdictDoesNotOutliveItsRun: a verdict judges the Run it
// was found in. Run 1 waits in a forged thief window that ends as soon
// as the watchdog has ruled (or after ten intervals); it may fail with
// the verdict or complete. Run 2 meets the same window for 1ms and
// must complete: a verdict left over from Run 1 must not fail it.
func TestWatchdogVerdictDoesNotOutliveItsRun(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const interval = 20 * time.Millisecond
	p := NewPool(Options{Workers: 1, Watchdog: interval})
	defer p.Close()
	for i := 0; i < 10; i++ {
		done := make(chan struct{})
		r := forgedWindow(p, func(restore func()) {
			go func() {
				defer close(done)
				for end := time.Now().Add(10 * interval); p.wdErr.Load() == nil && time.Now().Before(end); {
					time.Sleep(100 * time.Microsecond)
				}
				restore()
			}()
		})
		<-done
		if r != nil {
			if !isWatchdogError(r) {
				t.Fatalf("round %d: Run 1 panicked with %T (%v), want *WatchdogError or success", i, r, r)
			}
			if err := p.Reset(); err != nil {
				t.Fatalf("round %d: Reset: %v", i, err)
			}
		}
		if r := forgedWindow(p, func(restore func()) { time.AfterFunc(time.Millisecond, restore) }); r != nil {
			t.Fatalf("round %d: healthy Run failed: %v", i, r)
		}
	}
}

// TestWatchdogTripLatency: with every P in a wait loop (GOMAXPROCS =
// Workers), a stuck join fails its Run within 1.5 × the interval of
// entering the join.
func TestWatchdogTripLatency(t *testing.T) {
	const interval = 50 * time.Millisecond
	for _, workers := range []int{1, 2} {
		func() {
			prev := runtime.GOMAXPROCS(workers)
			defer runtime.GOMAXPROCS(prev)
			p := NewPool(Options{Workers: workers, Watchdog: interval})
			defer p.Close()
			var worst time.Duration
			for i := 0; i < 10; i++ {
				r, blocked := stuckJoin(p)
				if !isWatchdogError(r) {
					t.Fatalf("workers=%d trip %d: Run ended with %T (%v), want *WatchdogError", workers, i, r, r)
				}
				worst = max(worst, blocked)
				if blocked > interval*3/2 {
					t.Errorf("workers=%d trip %d: tripped %v after entering the join, want <= %v", workers, i, blocked, interval*3/2)
				}
				if err := p.Reset(); err != nil {
					t.Fatalf("workers=%d: Reset: %v", workers, err)
				}
			}
			t.Logf("workers=%d: slowest trip %v (interval %v)", workers, worst, interval)
		}()
	}
}

// settledGoroutines waits until runtime.NumGoroutine reads want, or a
// second has passed, and returns the last reading.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for end := time.Now().Add(time.Second); n != want && time.Now().Before(end); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestWatchdogStartsNoGoroutine: an armed pool runs no goroutine beyond
// its workers, before and after a trip and a Reset.
func TestWatchdogStartsNoGoroutine(t *testing.T) {
	base := settledGoroutines(-1) // a second for earlier tests' goroutines to exit
	for _, trip := range []bool{false, true} {
		interval := time.Second
		if trip {
			interval = 20 * time.Millisecond
		}
		p := NewPool(Options{Workers: 2, Watchdog: interval})
		if n := settledGoroutines(base + 1); n != base+1 {
			t.Errorf("trip=%v: %d goroutines after NewPool, want %d (baseline %d + 1 worker)", trip, n, base+1, base)
		}
		if trip {
			if r, _ := stuckJoin(p); !isWatchdogError(r) {
				t.Fatalf("stuck Run ended with %T (%v), want *WatchdogError", r, r)
			}
			if err := p.Reset(); err != nil {
				t.Fatal(err)
			}
			if n := settledGoroutines(base + 1); n != base+1 {
				t.Errorf("%d goroutines after a trip and a Reset, want %d", n, base+1)
			}
		}
		p.Close()
		if n := settledGoroutines(base); n != base {
			t.Errorf("trip=%v: %d goroutines after Close, want the baseline %d", trip, n, base)
		}
	}
}

// TestUnarmedPoolWritesNoWatchdogState: a pool without a watchdog
// that steals, blocks in a join and runs stolen work leaves every
// worker's progress, blockedSince and execing at 0, also while the
// stolen task runs and its owner waits.
func TestUnarmedPoolWritesNoWatchdogState(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	var during atomic.Int64
	slow := Define1("slow", func(w *Worker, x int64) int64 {
		time.Sleep(5 * time.Millisecond)
		for _, v := range p.workers {
			during.Add(v.blockedSince.Load() + v.execing.Load())
		}
		return x
	})
	for p.Stats().Steals == 0 {
		p.Run(func(w *Worker) int64 {
			slow.Spawn(w, 7)
			for end := time.Now().Add(time.Second); p.workers[1].steals.Load() == 0 && time.Now().Before(end); {
				runtime.Gosched()
			}
			return slow.Join(w)
		})
	}
	if n := during.Load(); n != 0 {
		t.Errorf("blockedSince+execing summed to %d while a stolen task ran on an unarmed pool, want 0", n)
	}
	for _, w := range p.workers {
		if pr, bs, ex := w.progress.Load(), w.blockedSince.Load(), w.execing.Load(); pr != 0 || bs != 0 || ex != 0 {
			t.Errorf("worker %d: progress=%d blockedSince=%d execing=%d on an unarmed pool, want all 0", w.idx, pr, bs, ex)
		}
	}
}

func isWatchdogError(r any) bool {
	_, ok := r.(*WatchdogError)
	return ok
}

// BenchmarkWaitPoll prices one wait-loop poll of a blocked join (make
// watch-bench), in ns: on an unarmed pool, with a watched context (far
// deadline), with a watchdog (an hour, the worker blocked), and with
// both.
func BenchmarkWaitPoll(b *testing.B) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, c := range []struct {
		name     string
		watch    bool
		watchdog time.Duration
	}{{"unarmed", false, 0}, {"watched", true, 0}, {"watchdog", false, time.Hour}, {"both", true, time.Hour}} {
		b.Run(c.name, func(b *testing.B) {
			p := NewPool(Options{Workers: 2, Watchdog: c.watchdog})
			defer p.Close()
			w := p.workers[0]
			if c.watch {
				p.Watch(ctx)
				defer p.Watch(nil)
			}
			w.markBlocked(true)
			defer w.markBlocked(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.waitPoll()
			}
		})
	}
}
