package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"gowool/internal/poolerr"
	"gowool/internal/trace"
)

// genFib is fib written the way woolgen expands it (fibw's
// fibExpanded): the private fast path first, and the TaskDef path when
// its gate declines, which is where an armed watch polls.
type genFib struct{ def *TaskDef1 }

func newGenFib() *genFib {
	g := &genFib{}
	g.def = Define1("gen-fib", g.body)
	return g
}

func (g *genFib) body(w *Worker, n int64) int64 {
	if n < 2 {
		return n
	}
	if t := w.SpawnPrepPrivate(); t != nil {
		t.Set1(g.def.wrap, n-2)
		w.SpawnCommitPrivate(t)
	} else {
		g.def.Spawn(w, n-2)
	}
	a := g.body(w, n-1)
	if t := w.JoinPrepPrivate(); t != nil {
		return a + g.body(w, t.Arg0())
	}
	return a + g.def.Join(w)
}

// onePool is the watch tests' pool: one worker with private tasks, as a
// served lane is.
func onePool(t *testing.T, opts Options) *Pool {
	t.Helper()
	opts.Workers, opts.PrivateTasks = 1, true
	p := NewPool(opts)
	t.Cleanup(p.Close)
	return p
}

// mustAbort runs root on p, which must unwind with an *AbortError, and
// returns its reason.
func mustAbort(t *testing.T, p *Pool, root func(*Worker) int64) error {
	t.Helper()
	r := mustPanic(t, "watched Run", func() { p.Run(root) })
	ae, ok := r.(*poolerr.AbortError)
	if !ok {
		t.Fatalf("watched Run panicked with %T (%v), want *poolerr.AbortError", r, r)
	}
	return ae.Reason
}

// stalledDeadline is a context whose deadline has passed while its own
// timer has not fired yet: Done is open and Err is nil, as a
// context.WithTimeout's are until some goroutine gets a P to run the
// timer.
type stalledDeadline struct {
	context.Context
	dl   time.Time
	done chan struct{}
}

func (c stalledDeadline) Deadline() (time.Time, bool) { return c.dl, true }
func (c stalledDeadline) Done() <-chan struct{}       { return c.done }
func (c stalledDeadline) Err() error                  { return nil }

// TestWatchPastDeadlineAbortsAtFirstSpawn: a deadline already past is
// seen at the first spawn, which never happens, whether or not the
// context's timer has fired, and the abort classifies as a cancellation.
func TestWatchPastDeadlineAbortsAtFirstSpawn(t *testing.T) {
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	stalled := stalledDeadline{Context: context.Background(), dl: time.Now().Add(-time.Millisecond), done: make(chan struct{})}
	for name, ctx := range map[string]context.Context{"fired": expired, "timer-not-fired": stalled} {
		t.Run(name, func(t *testing.T) {
			p := onePool(t, Options{})
			fib := newGenFib()
			p.Watch(ctx)
			reason := mustAbort(t, p, func(w *Worker) int64 { return fib.body(w, 20) })
			p.Watch(nil)
			if !errors.Is(reason, context.DeadlineExceeded) {
				t.Fatalf("abort reason = %v, want context.DeadlineExceeded", reason)
			}
			if c := poolerr.ClassOf(&poolerr.AbortError{Reason: reason}); c != poolerr.ClassNonRetryable {
				t.Errorf("ClassOf(abort) = %v, want non-retryable (a cancellation, not a failure)", c)
			}
			if n := p.Stats().Spawns; n != 0 {
				t.Errorf("%d spawns ran past a deadline already expired, want 0", n)
			}
			if err := p.Reset(); err != nil {
				t.Fatal(err)
			}
			if got := p.Run(func(w *Worker) int64 { return fib.body(w, 20) }); got != serialFib(20) {
				t.Fatalf("after Watch(nil) and Reset: fib(20) = %d, want %d", got, serialFib(20))
			}
		})
	}
}

// TestWatchCancelWithinOnePeriod: a leaf that cancels the watched
// context is followed by at most one poll period of spawns before the
// run unwinds with context.Canceled.
func TestWatchCancelWithinOnePeriod(t *testing.T) {
	p := onePool(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var atCancel, period int64
	leaf := Define1("cancel-leaf", func(w *Worker, i int64) int64 {
		if i == 5000 {
			cancel()
			atCancel, period = w.stats.Spawns, w.wt.period
		}
		return i
	})
	p.Watch(ctx)
	reason := mustAbort(t, p, func(w *Worker) int64 {
		for i := int64(0); ; i++ {
			leaf.Spawn(w, i)
			leaf.Join(w)
		}
	})
	p.Watch(nil)
	if !errors.Is(reason, context.Canceled) {
		t.Fatalf("abort reason = %v, want context.Canceled", reason)
	}
	if after := p.Stats().Spawns - atCancel; after > period {
		t.Errorf("%d spawns after the cancel, want at most the poll period of %d", after, period)
	}
}

// TestWatchUnarmedNeverPolls: a pool never armed, and one disarmed by
// Watch(nil) or by a context that cannot end, keeps both spawn gates at
// MaxInt64 and polls not once.
func TestWatchUnarmedNeverPolls(t *testing.T) {
	p := onePool(t, Options{})
	w := p.workers[0]
	fib := newGenFib()
	run := func(what string) {
		t.Helper()
		if w.fastUntil != math.MaxInt64 || w.pollAt != math.MaxInt64 {
			t.Fatalf("%s: fastUntil %d, pollAt %d, want both MaxInt64", what, w.fastUntil, w.pollAt)
		}
		if got := p.Run(func(w *Worker) int64 { return fib.body(w, 16) }); got != serialFib(16) {
			t.Fatalf("%s: fib(16) = %d", what, got)
		}
		if w.wt.polls != 0 {
			t.Fatalf("%s: %d polls, want 0", what, w.wt.polls)
		}
	}
	run("never armed")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Watch(ctx)
	if w.fastUntil != w.pollAt || w.pollAt != w.stats.Spawns {
		t.Fatalf("armed: fastUntil %d, pollAt %d, want both at Spawns %d", w.fastUntil, w.pollAt, w.stats.Spawns)
	}
	p.Run(func(w *Worker) int64 { return fib.body(w, 16) })
	if w.wt.polls == 0 {
		t.Fatal("an armed fib(16) never polled")
	}
	p.Watch(nil)
	run("after Watch(nil)")
	p.Watch(context.Background())
	run("after Watch(Background)")
}

// TestWatchFibPollsRarely: a healthy request pays a handful of polls.
// The period grows ×4 per poll from 1, so six polls take it to 1024
// spawns, past watchInterval's worth of spawns, and from there the owner
// polls about once per watchInterval. fib(16)'s 1596 spawns run in
// 10-13 µs on a 2-vCPU VM and poll 7 times, so at most 8. A slower or
// shared CPU stretches the run, and the bound with it: 6 + ⌈run /
// watchInterval⌉ when that is more. An interrupt inside one poll's
// window reads as spawns slowing down and shrinks the period at once, as
// it should, so the bound holds for the median of 21 runs, not for each.
func TestWatchFibPollsRarely(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows a spawn several-fold, and the period follows the spawn rate")
	}
	p := onePool(t, Options{})
	fib := newGenFib()
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	polls, took := make([]int64, 21), make([]time.Duration, 21)
	for i := range polls {
		p.Watch(ctx)
		start := time.Now()
		if got := p.Run(func(w *Worker) int64 { return fib.body(w, 16) }); got != serialFib(16) {
			t.Fatalf("fib(16) = %d", got)
		}
		took[i] = time.Since(start)
		polls[i] = p.workers[0].wt.polls
		p.Watch(nil)
	}
	slices.Sort(polls)
	slices.Sort(took)
	med, run := polls[len(polls)/2], took[len(took)/2]
	bound := max(8, 6+int64((run+watchInterval-1)/watchInterval))
	if med > bound {
		t.Errorf("fib(16) under a one-hour deadline polled %d times in %v (medians of %d runs; polls: %v), want at most %d", med, run, len(polls), polls, bound)
	}
}

// TestWatchLeafTreeUnwindsInTime: after a long leaf the period shrinks at
// once, and a burst of quick spawns does not stretch it over the next
// leaves: a 15-spawn tree of 200 µs leaves under a 1 ms deadline unwinds
// within 1.5 ms. A thread the host deschedules cannot poll, so a miss is
// retried, three rounds in all.
func TestWatchLeafTreeUnwindsInTime(t *testing.T) {
	p := onePool(t, Options{})
	var tree *TaskDef1
	tree = Define1("leaf-tree", func(w *Worker, d int64) int64 {
		if d == 0 {
			for end := time.Now().Add(200 * time.Microsecond); time.Now().Before(end); {
			}
			return 1
		}
		tree.Spawn(w, d-1)
		a := tree.Call(w, d-1)
		return a + tree.Join(w)
	})
	const rounds = 3
	for round := 1; ; round++ {
		start := time.Now()
		ctx, cancel := context.WithDeadline(context.Background(), start.Add(time.Millisecond))
		p.Watch(ctx)
		reason := mustAbort(t, p, func(w *Worker) int64 { return tree.Call(w, 4) })
		took := time.Since(start)
		p.Watch(nil)
		cancel()
		if !errors.Is(reason, context.DeadlineExceeded) {
			t.Fatalf("abort reason = %v, want context.DeadlineExceeded", reason)
		}
		if err := p.Reset(); err != nil {
			t.Fatal(err)
		}
		if took <= 1500*time.Microsecond {
			return
		}
		if round == rounds {
			t.Fatalf("a 1 ms deadline unwound after %v in each of %d rounds, want <= 1.5ms", took, rounds)
		}
		t.Logf("round %d: unwound after %v", round, took)
	}
}

// TestWatchBlockedJoinNotices: on a two-worker pool, worker 0 blocked in
// the join of a task a thief runs still polls, and its abort trips the
// thief's wire, so the run unwinds long before the task would end.
func TestWatchBlockedJoinNotices(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 2, PrivateTasks: true})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Bool
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	long := Define1("long", func(w *Worker, _ int64) int64 {
		started.Store(true)
		for end := time.Now().Add(2 * time.Second); time.Now().Before(end); {
			noop.Spawn(w, 1)
			noop.Join(w)
		}
		return 1
	})
	go func() {
		for !started.Load() {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	p.Watch(ctx)
	start := time.Now()
	reason := mustAbort(t, p, func(w *Worker) int64 {
		long.Spawn(w, 0) // public: a thief takes it
		for !started.Load() {
			runtime.Gosched()
		}
		return long.Join(w)
	})
	took := time.Since(start)
	p.Watch(nil)
	if !errors.Is(reason, context.Canceled) {
		t.Fatalf("abort reason = %v, want context.Canceled", reason)
	}
	if took > time.Second {
		t.Errorf("the blocked owner's run unwound after %v, want well inside the thief's 2 s task", took)
	}
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchTracedPoolSameCadence: a traced pool takes the generic path
// at every spawn (fastUntil 0), and polls on the same cadence as an
// untraced one: spawns 30 µs apart keep the period at 1, so each of 20
// spawns polls.
func TestWatchTracedPoolSameCadence(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	leaf := Define1("slow-leaf", func(w *Worker, x int64) int64 {
		for end := time.Now().Add(30 * time.Microsecond); time.Now().Before(end); {
		}
		return x
	})
	for name, opts := range map[string]Options{"untraced": {}, "traced": {Trace: trace.New(1, 1<<12)}} {
		t.Run(name, func(t *testing.T) {
			p := onePool(t, opts)
			w := p.workers[0]
			traced := opts.Trace != nil
			// gate is what fastUntil must read: 0 on a traced pool,
			// otherwise unarmed.
			gate := func(unarmed int64) int64 {
				if traced {
					return 0
				}
				return unarmed
			}
			p.Watch(ctx)
			if want := gate(w.pollAt); w.fastUntil != want {
				t.Fatalf("armed: fastUntil %d, want %d", w.fastUntil, want)
			}
			p.Run(func(w *Worker) int64 {
				var sum int64
				for i := int64(0); i < 20; i++ {
					leaf.Spawn(w, i)
					sum += leaf.Call(w, i) + leaf.Join(w)
				}
				return sum
			})
			if w.wt.polls != 20 {
				t.Errorf("%d polls over 20 spawns 30 µs apart, want 20", w.wt.polls)
			}
			p.Watch(nil)
			if want := gate(math.MaxInt64); w.fastUntil != want {
				t.Errorf("disarmed: fastUntil %d, want %d", w.fastUntil, want)
			}
		})
	}
}

// BenchmarkWatchPoll prices the deadline watch (make watch-bench):
//
//   - poll: one poll of an armed owner, in ns — the clock read against
//     the deadline, the non-blocking Done receive and the period's
//     update;
//   - fib16: polls per fib(16) run under a far deadline (polls/run), on
//     the generated-style fast path a served fib(16) takes.
func BenchmarkWatchPoll(b *testing.B) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	b.Run("poll", func(b *testing.B) {
		p := NewPool(Options{Workers: 1, PrivateTasks: true})
		defer p.Close()
		w := p.workers[0]
		p.Watch(ctx)
		for i := 0; i < b.N; i++ {
			w.stats.Spawns++
			w.poll()
		}
		p.Watch(nil)
	})
	b.Run("fib16", func(b *testing.B) {
		p := NewPool(Options{Workers: 1, PrivateTasks: true})
		defer p.Close()
		fib := newGenFib()
		var polls int64
		for i := 0; i < b.N; i++ {
			p.Watch(ctx)
			p.Run(func(w *Worker) int64 { return fib.body(w, 16) })
			polls += p.workers[0].wt.polls
			p.Watch(nil)
		}
		b.ReportMetric(float64(polls)/float64(b.N), "polls/run")
	})
}
