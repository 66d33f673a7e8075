package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/core"
	"gowool/internal/poolerr"
	"gowool/internal/sched"
	"gowool/internal/steal"
	"gowool/internal/trace"
	"gowool/internal/workloads/fibw"
)

// gateJob is the cancellation probe: a recursion whose inline branch
// spins on g at every level, so a request stays mid-flight until the
// test opens the gate and then unwinds through a long ladder of joins
// (each one an abort observation point). started, when non-nil, is set
// the moment the request is provably running on a lane — tests wait on
// it before cancelling so a cancellation is mid-flight, not
// while-queued. Completed value is depth+1.
func gateJob(g, started *atomic.Bool, depth int64) Job { return Rec(gateRec(g, started, depth)) }

// gateRec is gateJob's recursion, for tests that wrap it further.
func gateRec(g, started *atomic.Bool, depth int64) sched.RecJob {
	return sched.RecJob{
		Name: "gate",
		Root: depth,
		Leaf: func(n int64) (int64, bool) {
			if n < 0 {
				if started != nil {
					started.Store(true)
				}
				for !g.Load() {
					runtime.Gosched()
				}
				return 1, true
			}
			if n == 0 {
				return 1, true
			}
			return 0, false
		},
		Split: func(n int64) (inline, spawned int64) { return -1, n - 1 },
	}
}

// cancelJob is the mid-flight cancellation probe: gateJob's recursion,
// whose first leaf waits for ctx to end instead of for a gate and then
// returns. The spawn that follows is the owner's next poll of the ended
// context, and the run unwinds from there; nothing can abort it while
// the owner sits in the leaf.
func cancelJob(ctx context.Context, started *atomic.Bool, depth int64) Job {
	return Rec(cancelRec(ctx, started, depth))
}

// cancelRec is cancelJob's recursion, for tests that wrap it further.
func cancelRec(ctx context.Context, started *atomic.Bool, depth int64) sched.RecJob {
	j := gateRec(nil, nil, depth)
	leaf := j.Leaf
	j.Leaf = func(n int64) (int64, bool) {
		if n >= 0 {
			return leaf(n)
		}
		if started != nil {
			started.Store(true)
		}
		<-ctx.Done()
		return 1, true
	}
	return j
}

// waitTrue polls an atomic flag (a gate job's started signal).
func waitTrue(t *testing.T, f *atomic.Bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !f.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestServeBasic submits a burst of concurrent fib requests through
// the default (single anonymous tenant) server and checks every
// result against the serial reference.
func TestServeBasic(t *testing.T) {
	bothTakers(t, func(t *testing.T, m waitMode) {
		s, err := New(Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		const reqs = 32
		want := fibw.Serial(16)
		var wg sync.WaitGroup
		errs := make(chan error, reqs)
		for i := 0; i < reqs; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tk, err := s.Submit(context.Background(), "", Rec(fibw.Job(16, 1)))
				if err != nil {
					errs <- err
					return
				}
				v, err := m.wait(tk)
				if err != nil {
					errs <- err
					return
				}
				if v != want {
					errs <- fmt.Errorf("fib(16) = %d, want %d", v, want)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		st := s.Stats()
		if got := st.Tenants[0].Completed; got != reqs {
			t.Errorf("completed = %d, want %d", got, reqs)
		}
	})
}

// lanePoolStats sums the counters of the lanes' current pools. Call it
// with the lanes idle: pool counters are exact only on a quiescent pool.
func lanePoolStats(s *Server) (sum core.Stats) {
	for _, l := range s.lanes {
		st := l.pool.Load().Stats()
		sum.Spawns += st.Spawns
		sum.JoinsInlinedPrivate += st.JoinsInlinedPrivate
		sum.JoinsInlinedPublic += st.JoinsInlinedPublic
		sum.Publications += st.Publications
	}
	return sum
}

// TestServeLanesRunPrivate is the served request's cost as a count: on
// a one-worker lane, which has no thief, none of fib(16)'s 1596
// spawn/join pairs synchronizes — every join is a private inlined one,
// whoever runs the request and whatever Options.Pool says about private
// tasks. A wider lane keeps the paper's revocable cut-off: same answer,
// private joins beyond its public prefix.
func TestServeLanesRunPrivate(t *testing.T) {
	const pairs = 1596 // fib(16)'s inner nodes
	want := fibw.Serial(16)
	bothTakers(t, func(t *testing.T, m waitMode) {
		s, err := New(Options{Workers: 1, Pool: sched.Options{PrivateTasks: false}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		tk, err := s.Submit(context.Background(), "", Rec(fibw.Job(16, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if v, err := m.wait(tk); err != nil || v != want {
			t.Fatalf("fib(16) = %d, %v, want %d", v, err, want)
		}
		st := lanePoolStats(s)
		if st.Spawns != pairs || st.JoinsInlinedPrivate != pairs || st.JoinsInlinedPublic != 0 {
			t.Errorf("one-worker lane: %d spawns, %d private and %d public inlined joins, want %d, %d and 0",
				st.Spawns, st.JoinsInlinedPrivate, st.JoinsInlinedPublic, pairs, pairs)
		}
	})

	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	s, err := New(Options{Workers: 2, LaneWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		tk, err := s.Submit(context.Background(), "", Rec(fibw.Job(16, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if v, err := tk.Wait(); err != nil || v != want {
			t.Fatalf("request %d on a two-worker lane: fib(16) = %d, %v, want %d", i, v, err, want)
		}
	}
	if st := lanePoolStats(s); st.JoinsInlinedPrivate == 0 {
		t.Errorf("two-worker lane made no private join in %d spawns", st.Spawns)
	}
}

// TestServeRefusesUnsupportedPoolOptions: Options.Pool is the
// registry's normalized form, of which a lane honours what the direct
// task stack does; New refuses the rest before it builds a pool, naming
// the option.
func TestServeRefusesUnsupportedPoolOptions(t *testing.T) {
	s, err := New(Options{Workers: 1, Pool: sched.Options{Steal: steal.Config{Policy: "zigzag"}}})
	if err == nil {
		s.Close()
		t.Fatal("New accepted Steal.Policy zigzag, which the direct task stack cannot honour")
	}
	if !strings.Contains(err.Error(), "Steal.Policy") {
		t.Errorf("refusal %q does not name Steal.Policy", err)
	}
}

// TestServeLanesShareNoSinks: a tracer's rings and a chaos injector's
// agents are single-writer per worker index, and every lane pool has a
// worker 0, so one sink copied into two lanes through Options.Pool is a
// data race (Ring.Record from two lane goroutines, under -race). New
// must refuse it, naming both lanes and the way out; one sink per lane
// attached through ConfigurePool must serve race-clean; and a single
// lane may keep using Options.Pool.
func TestServeLanesShareNoSinks(t *testing.T) {
	shared := map[string]sched.Options{
		"trace": {Trace: trace.New(2, 1<<10)},
		"chaos": {Chaos: chaos.NewInjector(2, chaos.Profiles()[0], 1)},
	}
	for name, po := range shared {
		s, err := New(Options{Workers: 2, LaneWidth: 1, Pool: po})
		if err == nil {
			s.Close()
			t.Fatalf("%s: New accepted one sink shared by two lanes", name)
		}
		for _, sub := range []string{"lanes 0 and 1", "ConfigurePool"} {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q does not mention %q", name, err, sub)
			}
		}
		one, err := New(Options{Workers: 1, LaneWidth: 1, Pool: po})
		if err != nil {
			t.Fatalf("%s: single lane with a sink in Options.Pool: %v", name, err)
		}
		one.Close()
	}

	tracers := []*trace.Tracer{trace.New(1, 1<<10), trace.New(1, 1<<10)}
	s, err := New(Options{Workers: 2, LaneWidth: 1,
		ConfigurePool: func(lane int, o *sched.Options) { o.Trace = tracers[lane] }})
	if err != nil {
		t.Fatal(err)
	}
	var tks []*Ticket
	for i := 0; i < 200; i++ {
		tk, err := s.Submit(context.Background(), "", Rec(fibw.Job(12, 1)))
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	want := fibw.Serial(12)
	for _, tk := range tks {
		if v, err := tk.Wait(); err != nil || v != want {
			t.Fatalf("traced fib(12): v=%d err=%v, want %d, nil", v, err, want)
		}
	}
	s.Close()
	events := 0
	for _, tr := range tracers {
		for _, evs := range tr.Snapshot() {
			events += len(evs)
		}
	}
	if events == 0 {
		t.Error("per-lane tracers recorded nothing")
	}
}

// TestServeWatchdogErrorStaysTyped: runJob converts the scheduler's
// panic surface into errors by type. A *poolerr.WatchdogError must come
// out of Wait as itself — retryable, and a failure for the lane's
// streak — while any other panic value is wrapped in a *PanicError.
func TestServeWatchdogErrorStaysTyped(t *testing.T) {
	bothTakers(t, func(t *testing.T, m waitMode) {
		s, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		panicJob := func(name string, val any) Job {
			return Rec(sched.RecJob{
				Name:  name,
				Root:  3,
				Leaf:  func(n int64) (int64, bool) { panic(val) },
				Split: func(n int64) (inline, spawned int64) { return n - 1, n - 2 },
			})
		}

		trip := &poolerr.WatchdogError{Interval: time.Second, Bundle: "synthetic trip"}
		tk, err := s.Submit(context.Background(), "", panicJob("wd-trip", trip))
		if err != nil {
			t.Fatal(err)
		}
		_, werr := m.wait(tk)
		var we *poolerr.WatchdogError
		if !errors.As(werr, &we) || we != trip {
			t.Fatalf("watchdog trip: err = %T (%v), want the *poolerr.WatchdogError itself", werr, werr)
		}
		if c := poolerr.ClassOf(werr); c != poolerr.ClassRetryable {
			t.Errorf("ClassOf(watchdog trip) = %v, want retryable", c)
		}
		if streak := s.Health().Lanes[0].FailureStreak; streak != 1 {
			t.Errorf("failure streak after a watchdog trip = %d, want 1", streak)
		}

		tk, err = s.Submit(context.Background(), "", panicJob("plain-boom", "plain boom"))
		if err != nil {
			t.Fatal(err)
		}
		_, werr = m.wait(tk)
		var pe *PanicError
		if !errors.As(werr, &pe) || pe.Val != "plain boom" {
			t.Fatalf("string panic: err = %T (%v), want *PanicError{plain boom}", werr, werr)
		}
		if streak := s.Health().Lanes[0].FailureStreak; streak != 2 {
			t.Errorf("failure streak after two failures = %d, want 2", streak)
		}
		mustWaitFib(t, s, m, "")
	})
}

// TestServeOverload fills a single-lane server's bounded queue and
// checks admission control sheds the excess with ErrOverloaded.
func TestServeOverload(t *testing.T) {
	bothTakers(t, func(t *testing.T, m waitMode) {
		s, err := New(Options{Workers: 1, MaxPending: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		var gate, started atomic.Bool
		// First request occupies the lane (popped immediately), two more
		// fill the pending queue.
		var tks []*Ticket
		blocker, err := s.Submit(context.Background(), "", gateJob(&gate, &started, 4))
		if err != nil {
			t.Fatal(err)
		}
		// Wait until the blocker is actually in flight so the queue bound
		// is deterministic.
		waitTrue(t, &started, "blocker dispatch")
		for i := 0; i < 2; i++ {
			tk, err := s.Submit(context.Background(), "", gateJob(&gate, nil, 4))
			if err != nil {
				t.Fatal(err)
			}
			tks = append(tks, tk)
		}
		if _, err := s.Submit(context.Background(), "", gateJob(&gate, nil, 4)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submit beyond MaxPending: err = %v, want ErrOverloaded", err)
		}
		gate.Store(true)
		if v, err := m.wait(blocker); err != nil || v != 5 {
			t.Fatalf("blocker: v=%d err=%v, want 5, nil", v, err)
		}
		for _, tk := range tks {
			if v, err := m.wait(tk); err != nil || v != 5 {
				t.Fatalf("queued: v=%d err=%v, want 5, nil", v, err)
			}
		}
		st := s.Stats()
		if st.Tenants[0].Rejected != 1 {
			t.Errorf("rejected = %d, want 1", st.Tenants[0].Rejected)
		}
	})
}

// TestServeTenantLanes checks the weighted lane apportionment (every
// tenant at least one lane, remainder by largest weight remainder)
// and the unknown-tenant rejection.
func TestServeTenantLanes(t *testing.T) {
	s, err := New(Options{
		Workers: 8,
		Tenants: []Tenant{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	if st.Lanes != 8 {
		t.Fatalf("lanes = %d, want 8", st.Lanes)
	}
	byName := map[string]TenantStats{}
	for _, ts := range st.Tenants {
		byName[ts.Name] = ts
	}
	if byName["a"].Lanes != 6 || byName["b"].Lanes != 2 {
		t.Errorf("lane split a=%d b=%d, want 6/2", byName["a"].Lanes, byName["b"].Lanes)
	}
	if _, err := s.Submit(context.Background(), "ghost", Rec(fibw.Job(10, 1))); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant: err = %v, want ErrUnknownTenant", err)
	}
	// A tenant starving its own queue still gets served: submit to both.
	ta, _ := s.Submit(context.Background(), "a", Rec(fibw.Job(12, 1)))
	tb, _ := s.Submit(context.Background(), "b", Rec(fibw.Job(12, 1)))
	want := fibw.Serial(12)
	for _, tk := range []*Ticket{ta, tb} {
		if v, err := tk.Wait(); err != nil || v != want {
			t.Fatalf("v=%d err=%v, want %d, nil", v, err, want)
		}
	}
}

// TestServePanicIsolation checks one request's task panic surfaces as
// its own *PanicError and leaves the server healthy for the next
// request (pool Reset).
func TestServePanicIsolation(t *testing.T) {
	t.Run(served, func(t *testing.T) {
		bothTakers(t, func(t *testing.T, m waitMode) {
			s, err := New(Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			boom := Rec(sched.RecJob{
				Name: "boom",
				Root: 6,
				Leaf: func(n int64) (int64, bool) {
					if n <= 0 {
						panic("boom at the leaf")
					}
					return 0, false
				},
				Split: func(n int64) (inline, spawned int64) { return n - 1, n - 2 },
			})
			tk, err := s.Submit(context.Background(), "", boom)
			if err != nil {
				t.Fatal(err)
			}
			_, werr := m.wait(tk)
			var pe *PanicError
			if !errors.As(werr, &pe) {
				t.Fatalf("panicking request: err = %v, want *PanicError", werr)
			}
			// The lane must have revived its pool: follow-up requests
			// complete normally.
			want := fibw.Serial(15)
			for i := 0; i < 4; i++ {
				tk, err := s.Submit(context.Background(), "", Rec(fibw.Job(15, 1)))
				if err != nil {
					t.Fatal(err)
				}
				if v, err := m.wait(tk); err != nil || v != want {
					t.Fatalf("post-panic fib(15): v=%d err=%v, want %d, nil", v, err, want)
				}
			}
			st := s.Stats()
			if st.Tenants[0].Failed != 1 {
				t.Errorf("failed = %d, want 1", st.Tenants[0].Failed)
			}
		})
	})
}

// TestServeCancelMidFlight is the acceptance check: a request whose
// context is cancelled mid-run unwinds with context.Canceled while
// concurrent sibling requests on other lanes complete untouched.
func TestServeCancelMidFlight(t *testing.T) {
	t.Run(served, func(t *testing.T) {
		bothTakers(t, func(t *testing.T, m waitMode) {
			s, err := New(Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			var started atomic.Bool
			ctx, cancel := context.WithCancel(context.Background())
			victim, err := s.Submit(ctx, "", cancelJob(ctx, &started, 256))
			if err != nil {
				t.Fatal(err)
			}
			res := m.waitAsync(victim)
			waitTrue(t, &started, "victim dispatch")
			// Siblings on the other lanes keep completing while the
			// victim waits in its leaf.
			want := fibw.Serial(15)
			var sibs []*Ticket
			for i := 0; i < 6; i++ {
				tk, err := s.Submit(context.Background(), "", Rec(fibw.Job(15, 1)))
				if err != nil {
					t.Fatal(err)
				}
				sibs = append(sibs, tk)
			}
			for _, tk := range sibs {
				if v, err := m.wait(tk); err != nil || v != want {
					t.Fatalf("sibling during spin: v=%d err=%v, want %d, nil", v, err, want)
				}
			}

			cancel()
			if r := <-res; !errors.Is(r.err, context.Canceled) {
				t.Fatalf("cancelled request: v=%d err=%v, want context.Canceled", r.v, r.err)
			}
			// Only its own request died: fresh requests on every lane
			// still complete.
			var after []*Ticket
			for i := 0; i < 8; i++ {
				tk, err := s.Submit(context.Background(), "", Rec(fibw.Job(15, 1)))
				if err != nil {
					t.Fatal(err)
				}
				after = append(after, tk)
			}
			for _, tk := range after {
				if v, err := m.wait(tk); err != nil || v != want {
					t.Fatalf("post-cancel sibling: v=%d err=%v, want %d, nil", v, err, want)
				}
			}
			st := s.Stats()
			if st.Tenants[0].Cancelled != 1 {
				t.Errorf("cancelled = %d, want 1", st.Tenants[0].Cancelled)
			}
		})
	})
}

// TestServeCancelRevivesSingleLane pins the Reset path: with exactly
// one lane there is nowhere to hide a broken pool — the cancelled
// request's own pool must serve the follow-ups.
func TestServeCancelRevivesSingleLane(t *testing.T) {
	bothTakers(t, func(t *testing.T, m waitMode) {
		s, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		for round := 0; round < 3; round++ {
			var started atomic.Bool
			ctx, cancel := context.WithCancel(context.Background())
			victim, err := s.Submit(ctx, "", cancelJob(ctx, &started, 256))
			if err != nil {
				t.Fatal(err)
			}
			res := m.waitAsync(victim)
			waitTrue(t, &started, "victim dispatch")
			cancel()
			if r := <-res; !errors.Is(r.err, context.Canceled) {
				t.Fatalf("round %d: err = %v, want context.Canceled", round, r.err)
			}
			want := fibw.Serial(16)
			tk, err := s.Submit(context.Background(), "", Rec(fibw.Job(16, 1)))
			if err != nil {
				t.Fatal(err)
			}
			if v, err := m.wait(tk); err != nil || v != want {
				t.Fatalf("round %d: revived lane fib(16): v=%d err=%v, want %d, nil", round, v, err, want)
			}
		}
	})
}

// TestServeDeadline checks a request deadline behaves like an explicit
// cancellation: the request fails with context.DeadlineExceeded.
func TestServeDeadline(t *testing.T) {
	bothTakers(t, func(t *testing.T, m waitMode) {
		s, err := New(Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var started atomic.Bool
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		tk, err := s.Submit(ctx, "", cancelJob(ctx, &started, 64))
		if err != nil {
			t.Fatal(err)
		}
		res := m.waitAsync(tk)
		waitTrue(t, &started, "request dispatch")
		if r := <-res; !errors.Is(r.err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", r.err)
		}
	})
}

// TestServeCancelWhileQueued checks a request cancelled before
// dispatch fails at dispatch without running.
func TestServeCancelWhileQueued(t *testing.T) {
	bothTakers(t, func(t *testing.T, m waitMode) {
		s, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var gate, started atomic.Bool
		blocker, err := s.Submit(context.Background(), "", gateJob(&gate, &started, 4))
		if err != nil {
			t.Fatal(err)
		}
		res := m.waitAsync(blocker)
		waitTrue(t, &started, "blocker dispatch")
		ctx, cancel := context.WithCancel(context.Background())
		queued, err := s.Submit(ctx, "", gateJob(&gate, nil, 4))
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		gate.Store(true)
		if r := <-res; r.err != nil || r.v != 5 {
			t.Fatalf("blocker: v=%d err=%v", r.v, r.err)
		}
		if _, werr := m.wait(queued); !errors.Is(werr, context.Canceled) {
			t.Fatalf("queued-cancelled: err = %v, want context.Canceled", werr)
		}
	})
}

// TestServeClose checks Close fails the queued backlog with ErrClosed,
// lets the in-flight request finish, and rejects new submissions.
func TestServeClose(t *testing.T) {
	bothTakers(t, func(t *testing.T, m waitMode) {
		s, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var gate, started atomic.Bool
		blocker, err := s.Submit(context.Background(), "", gateJob(&gate, &started, 4))
		if err != nil {
			t.Fatal(err)
		}
		res := m.waitAsync(blocker)
		waitTrue(t, &started, "blocker dispatch")
		var queued []*Ticket
		for i := 0; i < 2; i++ {
			tk, err := s.Submit(context.Background(), "", gateJob(&gate, nil, 4))
			if err != nil {
				t.Fatal(err)
			}
			queued = append(queued, tk)
		}
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			s.Close()
		}()
		for _, tk := range queued {
			if _, werr := m.wait(tk); !errors.Is(werr, ErrClosed) {
				t.Fatalf("drained ticket: err = %v, want ErrClosed", werr)
			}
		}
		gate.Store(true)
		if r := <-res; r.err != nil || r.v != 5 {
			t.Fatalf("in-flight at Close: v=%d err=%v, want 5, nil", r.v, r.err)
		}
		<-closed
		if _, err := s.Submit(context.Background(), "", gateJob(&gate, nil, 4)); !errors.Is(err, ErrClosed) {
			t.Fatalf("submit after Close: err = %v, want ErrClosed", err)
		}
		s.Close() // idempotent
	})
}

// TestApportionLanes pins the largest-remainder team sizing.
func TestApportionLanes(t *testing.T) {
	mk := func(ws ...int) []*tenant {
		out := make([]*tenant, len(ws))
		for i, w := range ws {
			out[i] = &tenant{weight: w}
		}
		return out
	}
	cases := []struct {
		weights []int
		total   int
		want    []int
	}{
		{[]int{1}, 4, []int{4}},
		{[]int{3, 1}, 8, []int{6, 2}},
		{[]int{1, 1, 1}, 2, []int{1, 1, 1}}, // floor: one lane each
		{[]int{5, 3, 2}, 10, []int{5, 3, 2}},
		{[]int{2, 1}, 4, []int{2, 2}}, // remainder favours b's larger fraction
	}
	for _, c := range cases {
		got := apportionLanes(mk(c.weights...), c.total)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("apportion(%v, %d) = %v, want %v", c.weights, c.total, got, c.want)
				break
			}
		}
	}
}
