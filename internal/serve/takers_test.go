package serve

// A mailed ticket has two takers racing for it — the lane's goroutine
// (the thief) and the submitter's own Wait (the join) — plus Close.
// This file holds the helpers that let the rest of the suite run under
// either taker, and the tests that pin the dispatch invariants of
// lane.go / DESIGN.md §16.1.

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"gowool/internal/poolerr"
	"gowool/internal/resilience"
	"gowool/internal/sched"
	"gowool/internal/workloads/fibw"
)

// waitMode is how a test collects a ticket, which decides who may run
// it.
type waitMode int

const (
	// join calls Wait directly: the caller takes the ticket if no lane
	// goroutine has, and runs it itself.
	join waitMode = iota
	// poll receives from Done first: the ticket is never joined, so only
	// a lane goroutine can run it.
	poll
)

func (m waitMode) String() string { return [...]string{"join", "poll"}[m] }

func (m waitMode) wait(tk *Ticket) (int64, error) {
	if m == poll {
		<-tk.Done()
	}
	return tk.Wait()
}

// waitAsync collects tk on a goroutine of its own, so that in join mode
// the request can be mid-flight on that goroutine while the test
// cancels its context, closes the server, or submits behind it.
func (m waitMode) waitAsync(tk *Ticket) <-chan waited {
	out := make(chan waited, 1)
	go func() {
		v, err := m.wait(tk)
		out <- waited{v, err}
	}()
	return out
}

type waited struct {
	v   int64
	err error
}

// modeOf picks a wait mode from seeded random bits, for the suites that
// mix both takers per client.
func modeOf(r uint64) waitMode { return waitMode(r >> 63) }

// served is the subtest level of the suites whose outcome depends on
// the port layer and the pool under it: the registry's name for what a
// lane runs. internal/sched pins the same behaviour on bare pools under
// that name and, for the generic ports, under "wool"
// (TestAbortableConformance, TestChaosTorture, TestPanic*).
const served = "woolgen"

// bothTakers runs f once per wait mode, as subtests.
func bothTakers(t *testing.T, f func(t *testing.T, m waitMode)) {
	for _, m := range []waitMode{join, poll} {
		t.Run(m.String(), func(t *testing.T) { f(t, m) })
	}
}

// goid is the calling goroutine's id, read off its stack header — a
// test-only identity stamp.
func goid() int64 {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, _ := strconv.ParseInt(s[:strings.IndexByte(s, ' ')], 10, 64)
	return id
}

// stamped returns j with its first Leaf call of each run recording the
// goroutine it runs on in ran.
func stamped(j sched.RecJob, ran *atomic.Int64) sched.RecJob {
	leaf := j.Leaf
	j.Leaf = func(n int64) (int64, bool) {
		ran.CompareAndSwap(0, goid())
		return leaf(n)
	}
	return j
}

// mailUnwoken is Submit without the wake: the ticket sits in an idle
// lane's mailbox and the lane's goroutine stays parked, so the mailed
// state — which a real Submit leaves within microseconds — holds still
// until the test's own Wait or Close takes the ticket.
func mailUnwoken(t *testing.T, s *Server, ctx context.Context, job Job) *Ticket {
	t.Helper()
	tn := s.tenants[0]
	tk := &Ticket{job: job, ctx: ctx, tn: tn, submitted: time.Since(epoch)}
	s.mu.Lock()
	l := s.dispatch(tk)
	tn.submitted.Add(1)
	s.mu.Unlock()
	if l == nil {
		t.Fatal("mailUnwoken: no idle lane, the ticket was queued")
	}
	return tk
}

// borrowGated gets a gated request running on a Wait caller: it mails
// job (built around the returned gate) to a lane whose goroutine it
// does not wake, so the Wait it starts on a fresh goroutine is the only
// taker, and returns once the request is mid-flight there. Call it on a
// server whose goroutines have no wake pending: a fresh one.
func borrowGated(t *testing.T, s *Server, ctx context.Context, build func(g, started *atomic.Bool) sched.RecJob) (g *atomic.Bool, res <-chan waited) {
	t.Helper()
	var started atomic.Bool
	g = new(atomic.Bool)
	res = join.waitAsync(mailUnwoken(t, s, ctx, Rec(build(g, &started))))
	waitTrue(t, &started, "gated request dispatch")
	return g, res
}

// TestServeWaitIsAJoin: on an idle server, a request that is Waited for
// runs on the goroutine that calls Wait, and a request that is only
// polled runs on another (the lane's). One P, so the lane goroutine that
// Submit readied cannot run before the caller reaches Wait; a stray
// preemption in the few instructions between can still hand it the
// ticket, hence "nearly all" in join mode. Poll mode is exact.
func TestServeWaitIsAJoin(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const reqs = 200
	want := fibw.Serial(8)
	bothTakers(t, func(t *testing.T, m waitMode) {
		onCaller := 0
		for i := 0; i < reqs; i++ {
			var ran atomic.Int64
			tk, err := s.Submit(context.Background(), "", Rec(stamped(fibw.Job(8, 1), &ran)))
			if err != nil {
				t.Fatal(err)
			}
			if v, err := m.wait(tk); err != nil || v != want {
				t.Fatalf("fib(8): v=%d err=%v, want %d, nil", v, err, want)
			}
			if ran.Load() == goid() {
				onCaller++
			}
		}
		switch {
		case m == join && onCaller < reqs*9/10:
			t.Errorf("join: %d of %d requests ran on the calling goroutine, want nearly all", onCaller, reqs)
		case m == poll && onCaller != 0:
			t.Errorf("poll: %d of %d requests ran on the calling goroutine, want none", onCaller, reqs)
		}
	})
}

// TestServeFireAndForget pins invariant 2: submissions nobody Waits on
// or polls still run, because Submit always wakes the mailbox's
// goroutine.
func TestServeFireAndForget(t *testing.T) {
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 300
	job := Rec(fibw.Job(10, 1))
	for i := 0; i < n; i++ {
		if _, err := s.Submit(context.Background(), "", job); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			// Let the lanes go idle now and then, so that mailboxes, not
			// only queues, carry the submissions.
			time.Sleep(50 * time.Microsecond)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Tenants[0].Completed != n {
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want Completed = %d with no Wait or Done call", s.Stats().Tenants[0], n)
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats().Tenants[0]; st.Pending != 0 {
		t.Errorf("pending = %d after everything completed", st.Pending)
	}
}

// TestServePendingCountsMailed pins invariant 5 and MaxPending's reach:
// Pending is queued plus mailed, a mailed ticket counts against the
// bound, and the waits bring it back to zero.
func TestServePendingCountsMailed(t *testing.T) {
	s, err := New(Options{Workers: 2, MaxPending: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var g, started atomic.Bool
	blocker, err := s.Submit(context.Background(), "", gateJob(&g, &started, 4))
	if err != nil {
		t.Fatal(err)
	}
	waitTrue(t, &started, "blocker dispatch") // holds lane 0; lane 1 is idle
	mailed := mailUnwoken(t, s, context.Background(), gateJob(&g, nil, 4))
	if p := s.Stats().Tenants[0].Pending; p != 1 {
		t.Fatalf("pending = %d with one ticket mailed, want 1", p)
	}
	var queued []*Ticket
	for i := 0; i < 2; i++ { // no idle lane left: these queue
		tk, err := s.Submit(context.Background(), "", gateJob(&g, nil, 4))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, tk)
	}
	if p := s.Stats().Tenants[0].Pending; p != 3 {
		t.Fatalf("pending = %d with one mailed and two queued, want 3", p)
	}
	if _, err := s.Submit(context.Background(), "", gateJob(&g, nil, 4)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit with MaxPending mailed+queued: err = %v, want ErrOverloaded", err)
	}
	g.Store(true)
	for _, tk := range append(queued, mailed, blocker) {
		if v, err := tk.Wait(); err != nil || v != 5 {
			t.Fatalf("v=%d err=%v, want 5, nil", v, err)
		}
	}
	if st := s.Stats().Tenants[0]; st.Pending != 0 || st.Completed != 4 {
		t.Fatalf("stats = %+v, want Pending=0 Completed=4", st)
	}
}

// TestServeCloseFailsMailed pins invariant 1 for the third taker: a
// ticket sitting in a mailbox when Close runs fails with ErrClosed,
// once, and the accounting identity holds.
func TestServeCloseFailsMailed(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	tk := mailUnwoken(t, s, context.Background(), Rec(stamped(fibw.Job(8, 1), &ran)))
	s.Close()
	bothTakers(t, func(t *testing.T, m waitMode) {
		if _, err := m.wait(tk); !errors.Is(err, ErrClosed) {
			t.Fatalf("mailed at Close: err = %v, want ErrClosed", err)
		}
	})
	if ran.Load() != 0 {
		t.Error("the drained ticket ran")
	}
	if st := s.Stats().Tenants[0]; st.Failed != 1 || st.Completed+st.Cancelled+st.Failed != st.Submitted || st.Pending != 0 {
		t.Fatalf("stats = %+v, want Failed=1, Pending=0 and Submitted = Completed+Cancelled+Failed", st)
	}
}

// TestServeExactlyOnce races all three takers: clients submit and then
// join, poll or walk away, while Close lands at a random point. Every
// accepted ticket must finish exactly once — a second finish would
// count twice (or close a closed channel) — and every one the clients
// kept must be collectable.
func TestServeExactlyOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		s, err := New(Options{Workers: 2, MaxPending: 8})
		if err != nil {
			t.Fatal(err)
		}
		job, want := Rec(fibw.Job(6, 1)), fibw.Serial(6)
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					tk, err := s.Submit(context.Background(), "", job)
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						continue // overload shed
					}
					if (i+c)%3 == 2 {
						continue // fire and forget
					}
					v, werr := waitMode((i + c) % 3).wait(tk)
					if werr == nil && v != want || werr != nil && !errors.Is(werr, ErrClosed) {
						t.Errorf("round %d: v=%d err=%v, want %d or ErrClosed", round, v, werr, want)
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(round%8) * 100 * time.Microsecond)
		s.Close()
		wg.Wait()
		if st := s.Stats().Tenants[0]; st.Completed+st.Cancelled+st.Failed != st.Submitted || st.Pending != 0 {
			t.Fatalf("round %d: stats = %+v, want Pending=0 and Submitted = Completed+Cancelled+Failed", round, st)
		}
	}
}

// TestServeCloseDuringBorrow pins invariant 4: Close, arriving while a
// Wait caller runs its request on a borrowed lane, fails what is
// pending but neither returns nor lets the pool be closed until the
// borrower is done.
func TestServeCloseDuringBorrow(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, res := borrowGated(t, s, context.Background(), func(g, started *atomic.Bool) sched.RecJob {
		return gateRec(g, started, 4)
	})
	queued, err := s.Submit(context.Background(), "", Rec(fibw.Job(8, 1)))
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.Close()
	}()
	if _, err := queued.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued behind the borrow: err = %v, want ErrClosed", err)
	}
	// Close is now waiting for the lane. Reset refuses a pool that is
	// running (typed) and a pool that is closed (untyped): the first is
	// what a pool still lent out must answer.
	pool := s.lanes[0].pool.Load()
	for i := 0; i < 20; i++ {
		select {
		case <-closed:
			t.Fatal("Close returned while a borrowed lane was still running its request")
		default:
		}
		if err := pool.Reset(); !errors.Is(err, poolerr.ErrConcurrentRun) {
			t.Fatalf("Reset on the borrowed pool: %v, want ErrConcurrentRun (pool open and running)", err)
		}
		time.Sleep(time.Millisecond)
	}
	g.Store(true)
	if r := <-res; r.err != nil || r.v != 5 {
		t.Fatalf("borrowed request across Close: v=%d err=%v, want 5, nil", r.v, r.err)
	}
	<-closed
	if err := pool.Reset(); err == nil || errors.Is(err, poolerr.ErrConcurrentRun) {
		t.Fatalf("Reset after Close: %v, want the closed-pool error", err)
	}
}

// TestServeBorrowedStreakQuarantinesFirst pins the hand-back order of
// invariant 4: a failure streak completed by a caller-run attempt
// quarantines the lane before the lane serves anything else — here a
// request already queued when the borrower returns, which must find
// the pool replaced.
func TestServeBorrowedStreakQuarantinesFirst(t *testing.T) {
	s, err := New(Options{
		Workers: 1,
		Resilience: resilience.Options{
			DisableBreaker: true,
			Quarantine:     resilience.QuarantineConfig{FailureStreak: 1, ProbeBackoff: time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var boom atomic.Bool
	g, res := borrowGated(t, s, context.Background(), func(g, started *atomic.Bool) sched.RecJob {
		j := gateRec(g, started, 1)
		leaf := j.Leaf
		j.Leaf = func(n int64) (int64, bool) {
			v, ok := leaf(n)
			if n < 0 && boom.Load() {
				panic("boom after the gate")
			}
			return v, ok
		}
		return j
	})
	boom.Store(true)
	l := s.lanes[0]
	var replacedBefore atomic.Int64
	replacedBefore.Store(-1)
	follower := fibw.Job(8, 1)
	leaf := follower.Leaf
	follower.Leaf = func(n int64) (int64, bool) {
		replacedBefore.CompareAndSwap(-1, l.replacements.Load())
		return leaf(n)
	}
	ftk, err := s.Submit(context.Background(), "", Rec(follower))
	if err != nil {
		t.Fatal(err)
	}
	g.Store(true)
	if r := <-res; r.err == nil {
		t.Fatal("gated boom request did not fail")
	}
	if v, err := ftk.Wait(); err != nil || v != fibw.Serial(8) {
		t.Fatalf("follower: v=%d err=%v, want %d, nil", v, err, fibw.Serial(8))
	}
	if n := replacedBefore.Load(); n != 1 {
		t.Fatalf("the queued follower ran with %d pool replacements done, want 1: it was served on the condemned pool", n)
	}
	if h := s.Health().Lanes[0]; h.Quarantines != 1 || h.FailureStreak != 0 {
		t.Fatalf("lane health = %+v, want one quarantine and the streak reset", h)
	}
}

// TestServeBorrowedCancel: a context cancelled while its request runs
// on the Wait caller aborts that run — Wait returns the context's error
// — and the lane, Reset by the caller before it let go, serves the next
// request.
func TestServeBorrowedCancel(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, res := borrowGated(t, s, ctx, func(_, started *atomic.Bool) sched.RecJob {
		return cancelRec(ctx, started, 256)
	})
	cancel()
	if r := <-res; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("caller-run cancelled request: v=%d err=%v, want context.Canceled", r.v, r.err)
	}
	bothTakers(t, func(t *testing.T, m waitMode) { mustWaitFib(t, s, m, "") })
	if st := s.Stats().Tenants[0]; st.Cancelled != 1 || st.Completed < 2 {
		t.Fatalf("stats = %+v, want Cancelled=1 and both follow-ups completed", st)
	}
	if h := s.Health().Lanes[0]; h.Poisoned || h.Replacements != 0 {
		t.Fatalf("lane health = %+v, want the same pool, Reset", h)
	}
}

// TestServeTwoWaiters: any number of goroutines may Wait on one ticket;
// one of them (or the lane goroutine) runs it and all see its result.
func TestServeTwoWaiters(t *testing.T) {
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := fibw.Serial(12)
	for i := 0; i < 200; i++ {
		tk, err := s.Submit(context.Background(), "", Rec(fibw.Job(12, 1)))
		if err != nil {
			t.Fatal(err)
		}
		other := join.waitAsync(tk)
		v, werr := tk.Wait()
		if r := <-other; werr != nil || v != want || r.err != nil || r.v != want {
			t.Fatalf("two waiters: (%d, %v) and (%d, %v), want %d, nil twice", v, werr, r.v, r.err, want)
		}
	}
	if st := s.Stats().Tenants[0]; st.Completed != 200 {
		t.Fatalf("completed = %d, want 200 (one run per ticket)", st.Completed)
	}
}

// TestTicketDoneVersusFinish pins the lazy done channel against the
// finalizer in both orders and under a race: the channel a caller got
// is always closed by finish (no lost close), a finished ticket hands
// out the shared closed channel, and finish never closes twice.
func TestTicketDoneVersusFinish(t *testing.T) {
	newTicket := func() *Ticket { return &Ticket{tn: &tenant{}, submitted: time.Since(epoch)} }
	isClosed := func(c <-chan struct{}) bool {
		select {
		case <-c:
			return true
		default:
			return false
		}
	}

	tk := newTicket() // Done, then finish
	c := tk.Done()
	if isClosed(c) || tk.Done() != c {
		t.Fatal("Done before finish: want one open channel")
	}
	tk.finish(1, nil, time.Since(epoch))
	if !isClosed(c) || !isClosed(tk.Done()) {
		t.Fatal("finish did not close the channel Done had handed out")
	}

	tk = newTicket() // finish, then Done
	tk.finish(1, nil, time.Since(epoch))
	if tk.done != nil || !isClosed(tk.Done()) || tk.done != nil {
		t.Fatal("Done after finish: want the shared closed channel and none allocated")
	}

	for i := 0; i < 2000; i++ { // racing
		tk := newTicket()
		got := make(chan (<-chan struct{}), 2)
		for g := 0; g < 2; g++ {
			go func() { got <- tk.Done() }()
		}
		tk.finish(int64(i), nil, time.Since(epoch))
		for g := 0; g < 2; g++ {
			select {
			case <-<-got:
			case <-time.After(10 * time.Second):
				t.Fatalf("iteration %d: a channel from a Done racing finish was never closed", i)
			}
		}
		if v, err := tk.Wait(); v != int64(i) || err != nil {
			t.Fatalf("iteration %d: Wait = %d, %v", i, v, err)
		}
	}
}

// TestTenantQueueStaysBounded: a queue that keeps refilling reuses its
// array — no reallocation once warm, whether it empties between bursts
// (pop rewinds) or never does (push compacts) — and FIFO order holds
// across both.
func TestTenantQueueStaysBounded(t *testing.T) {
	tickets := make([]*Ticket, 4)
	for i := range tickets {
		tickets[i] = new(Ticket)
	}
	for _, floor := range []int{0, 1} { // depth cycles floor..4
		tn := &tenant{}
		for i := 0; i < floor; i++ {
			tn.push(tickets[i])
		}
		next := floor // index of the next ticket to push; pops follow in the same order
		cycle := func() {
			for tn.queued() < 4 {
				tn.push(tickets[next%4])
				next++
			}
			for tn.queued() > floor {
				if got, want := tn.pop(), tickets[(next-tn.queued()-1)%4]; got != want {
					t.Fatalf("floor %d: pop out of FIFO order", floor)
				}
			}
		}
		for i := 0; i < 100; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(250_000, cycle); allocs != 0 { // 1 M push/pop pairs at floor 0
			t.Errorf("floor %d: %v allocations per refill cycle, want 0", floor, allocs)
		}
		if c := cap(tn.q); c > 16 {
			t.Errorf("floor %d: queue capacity grew to %d at depth <= 4", floor, c)
		}
	}
}

// TestServeRequestAllocs is the tier-1 mirror of bench.allocs_per_op on
// serve-tiny-closed: a Submit + Wait pair under context.Background()
// allocates the ticket and nothing else that recurs (7 before the port
// built once per Job, the lazy done channel and the caller-run join).
// AllocsPerRun runs on one P, which keeps the join on the caller (see
// TestServeWaitIsAJoin); a request the lane goroutine wins costs the
// done channel too, still inside the bound.
func TestServeRequestAllocs(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, want := Rec(fibw.Job(4, 1)), fibw.Serial(4)
	request := func(ctx context.Context) func() {
		return func() {
			tk, err := s.Submit(ctx, "", job)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := tk.Wait(); err != nil || v != want {
				t.Fatalf("fib(4): v=%d err=%v", v, err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(2000, request(context.Background())); allocs > 2 {
		t.Errorf("Submit + Wait allocates %v times per request, want <= 2", allocs)
	}
	// A context that can end costs the request nothing more: deadline
	// admission measures the remaining budget from the submit stamp, and
	// serveOne arms the pool's watch (core.Pool.Watch) with plain stores,
	// where a context.AfterFunc with its callback and a fired channel used
	// to cost 4 allocations.
	timed, cancelTimed := context.WithTimeout(context.Background(), time.Hour)
	defer cancelTimed()
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, ctx := range map[string]context.Context{"a deadline": timed, "a cancelable context": cancelable} {
		if allocs := testing.AllocsPerRun(2000, request(ctx)); allocs > 1 {
			t.Errorf("Submit + Wait under %s allocates %v times per request, want <= 1", name, allocs)
		}
	}
	if size := unsafe.Sizeof(Ticket{}); size > 128 {
		t.Errorf("a Ticket is %d bytes, want <= 128: it is the one allocation of a request, and the next size class is 144", size)
	}
}

// TestJobPortPerBackend: a Job is complete when Rec or Range returns it
// and nothing writes to it afterwards — one value submitted to two
// servers concurrently, under both takers, returns the serial value on
// both, and running it allocates nothing.
func TestJobPortPerBackend(t *testing.T) {
	servers := make([]*Server, 2)
	for i := range servers {
		s, err := New(Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		servers[i] = s
	}
	jobs := map[string]Job{"rec": Rec(fibw.Job(12, 1)), "range": Range(sched.RangeJob{N: 100, Leaf: func(i int64) int64 { return i }})}
	wants := map[string]int64{"rec": fibw.Serial(12), "range": 4950}
	var wg sync.WaitGroup
	for si, s := range servers {
		for name, jb := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					tk, err := s.Submit(context.Background(), "", jb)
					if err != nil {
						t.Error(err)
						return
					}
					if v, err := waitMode(i % 2).wait(tk); err != nil || v != wants[name] {
						t.Errorf("%s on server %d: v=%d err=%v, want %d, nil", name, si, v, err, wants[name])
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	p := newLanePool(sched.Options{Workers: 1, PrivateTasks: true})
	defer p.Close()
	for name, jb := range jobs {
		allocs := testing.AllocsPerRun(200, func() {
			if v, err := runJob(p, jb); err != nil || v != wants[name] {
				t.Fatalf("%s: v=%d err=%v, want %d, nil", name, v, err, wants[name])
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a run allocates %v times, want 0", name, allocs)
		}
	}
}
