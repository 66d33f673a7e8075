package sched_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// gateRec is a recursion whose inline branch spins on gate at every
// level: it keeps a Run provably in flight (started) until the test
// releases it, then unwinds through a ladder of joins. Completed value
// is depth+1.
func gateRec(started, gate *atomic.Bool, depth int64) sched.RecJob {
	return sched.RecJob{
		Name: "gate",
		Root: depth,
		Leaf: func(n int64) (int64, bool) {
			if n < 0 {
				if started != nil {
					started.Store(true)
				}
				for !gate.Load() {
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

// TestConcurrentRunTypedError checks the concurrent-Run guard is the
// same typed error on every pooled backend: a Run overlapping another
// panics with an error wrapping poolerr.ErrConcurrentRun, so callers
// (the serving layer above all) can recognize the condition with
// errors.Is instead of matching five backend-specific panic strings.
// gonative has no single-root pool — overlapping Runs are inherently
// safe there, which the test verifies instead of skipping.
func TestConcurrentRunTypedError(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, s := range sched.All() {
		t.Run(s.Name(), func(t *testing.T) {
			p := s.NewPool(sched.Options{Workers: 2})
			defer p.Close()
			if p.Native() == nil {
				var wg sync.WaitGroup
				want := fibw.Serial(12)
				for i := 0; i < 4; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if got := p.RunRec(fibw.Job(12, 1)); got != want {
							t.Errorf("concurrent fib(12) = %d, want %d", got, want)
						}
					}()
				}
				wg.Wait()
				return
			}

			var started, gate atomic.Bool
			done := make(chan int64, 1)
			go func() { done <- p.RunRec(gateRec(&started, &gate, 8)) }()
			for !started.Load() {
				runtime.Gosched()
			}
			err := func() (err error) {
				defer func() {
					r := recover()
					if r == nil {
						return
					}
					e, ok := r.(error)
					if !ok {
						t.Errorf("overlapping Run panicked with %T (%v), want an error wrapping poolerr.ErrConcurrentRun", r, r)
						return
					}
					err = e
				}()
				p.RunRec(fibw.Job(5, 1))
				return nil
			}()
			if !errors.Is(err, poolerr.ErrConcurrentRun) {
				t.Fatalf("overlapping Run: err = %v, want errors.Is(..., poolerr.ErrConcurrentRun)", err)
			}
			gate.Store(true)
			if v := <-done; v != 9 {
				t.Fatalf("gated Run = %d, want 9", v)
			}
		})
	}
}

// countingFib is fibw.Job(n) with the leaves counted, so a test can tell
// how much of the tree ran after some instant.
func countingFib(n int64, leaves *atomic.Int64) sched.RecJob {
	j := fibw.Job(n, 1)
	leaf := j.Leaf
	j.Leaf = func(n int64) (int64, bool) {
		v, ok := leaf(n)
		if ok {
			leaves.Add(1)
		}
		return v, ok
	}
	return j
}

// maxLateLeaves bounds how much of an aborted tree may still run once
// Abort has returned: a worker sees the abort at its next spawn, or
// within 32 joins, and a fib leaf is never more than a few of either
// away from the next one.
const maxLateLeaves = 64

// abortPromptly runs job on p, calls Abort once at leaves have run — the
// run may have finished by then; Abort then poisons an idle pool — and
// returns how many leaves ran after Abort returned and whether the
// abort cut the run short, with the pool Reset. The final count is read
// after Reset, which waits out the thieves.
func abortPromptly(t *testing.T, p *sched.Pool, job sched.RecJob, leaves *atomic.Int64, at int64) (late int64, cut bool) {
	t.Helper()
	ab := p.Native().(*core.Pool)
	res := make(chan any, 1)
	go func() {
		defer func() { res <- recover() }()
		p.RunRec(job)
	}()
	for leaves.Load() < at {
		runtime.Gosched()
	}
	ab.Abort(errors.New("promptness probe"))
	atReturn := leaves.Load()
	r := <-res
	if _, isAbort := r.(*poolerr.AbortError); r != nil && !isAbort {
		t.Fatalf("aborted Run panicked with %T (%v), want *poolerr.AbortError", r, r)
	}
	if err := ab.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	return leaves.Load() - atReturn, r != nil
}

// checkAbortIsPrompt is one promptness cell of TestAbortableConformance:
// a pool of s with or without private tasks, with a thief or without.
func checkAbortIsPrompt(t *testing.T, s *sched.Scheduler, private bool, workers int) {
	p := s.NewPool(sched.Options{Workers: workers, PrivateTasks: private})
	defer p.Close()
	var leaves atomic.Int64

	// Deep into a tree of 9 M leaves.
	late, cut := abortPromptly(t, p, countingFib(34, &leaves), &leaves, 10_000)
	if late > maxLateLeaves || !cut {
		t.Fatalf("%d leaves ran after Abort returned (run cut short: %v), want <= %d", late, cut, maxLateLeaves)
	}

	// At a random instant of a small tree — inside a publication, under
	// a blocked join, after the last leaf — on one pool, Reset in
	// between.
	rounds := 500
	if testing.Short() {
		rounds = 100
	}
	rng := rand.New(rand.NewSource(int64(workers)))
	const size, sizeLeaves = 20, 10946
	job := countingFib(size, &leaves)
	worst, cuts := int64(0), 0
	for i := 0; i < rounds; i++ {
		leaves.Store(0)
		at := 1 + rng.Int63n(sizeLeaves-1) // a leaf ran: Run has begun
		late, cut := abortPromptly(t, p, job, &leaves, at)
		if late > maxLateLeaves {
			t.Fatalf("round %d (abort at leaf %d): %d leaves ran after Abort returned, want <= %d", i, at, late, maxLateLeaves)
		}
		worst = max(worst, late)
		if cut {
			cuts++
		}
	}
	if cuts < rounds/20 {
		t.Errorf("only %d of %d aborts landed mid-run: the rounds stopped covering the abort", cuts, rounds)
	}
	if got, want := p.RunRec(fibw.Job(16, 1)), fibw.Serial(16); got != want {
		t.Fatalf("fib(16) after %d abort/Reset rounds = %d, want %d", rounds, got, want)
	}
	t.Logf("%d rounds, %d cut short: worst %d late leaves", rounds, cuts, worst)
}

// TestAbortableConformance checks the abort lifecycle of the direct
// task stack through every port layer the registry puts on it — each
// scheduler whose Native is a *core.Pool, the generic ports ("wool") and
// the generated ones ("woolgen", what the serving layer runs): Abort
// lands mid-Run as a *poolerr.AbortError carrying the reason, Poisoned
// observes it, Reset returns the same pool to correct service.
// Promptness is part of the contract, with private tasks or without and
// with a thief or without: once Abort has returned, at most
// maxLateLeaves more leaves of the aborted tree run — a deadline that
// let the request run to completion would be no deadline.
func TestAbortableConformance(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	abortable := 0
	for _, s := range sched.All() {
		t.Run(s.Name(), func(t *testing.T) {
			p := s.NewPool(sched.Options{Workers: 2})
			defer p.Close()
			ab, ok := p.Native().(*core.Pool)
			if !ok {
				return
			}
			abortable++

			probe := errors.New("abort probe")
			var started, gate atomic.Bool
			res := make(chan any, 1)
			go func() {
				defer func() { res <- recover() }()
				p.RunRec(gateRec(&started, &gate, 256))
			}()
			for !started.Load() {
				runtime.Gosched()
			}
			if !ab.Abort(probe) {
				t.Fatal("Abort returned false on a healthy running pool")
			}
			if ab.Abort(errors.New("second")) {
				t.Fatal("second Abort on a poisoned pool returned true")
			}
			gate.Store(true)
			r := <-res
			ae, isAbort := r.(*poolerr.AbortError)
			if !isAbort {
				t.Fatalf("aborted Run panicked with %T (%v), want *poolerr.AbortError", r, r)
			}
			if !errors.Is(ae, probe) {
				t.Fatalf("AbortError does not unwrap to the Abort reason: %v", ae)
			}
			if _, poisoned := ab.Poisoned(); !poisoned {
				t.Fatal("Poisoned() = false after an abort")
			}
			if err := ab.Reset(); err != nil {
				t.Fatalf("Reset: %v", err)
			}
			if _, poisoned := ab.Poisoned(); poisoned {
				t.Fatal("still poisoned after Reset")
			}
			want := fibw.Serial(16)
			if got := p.RunRec(fibw.Job(16, 1)); got != want {
				t.Fatalf("post-Reset fib(16) = %d, want %d", got, want)
			}

			for _, private := range []bool{false, true} {
				for _, workers := range []int{1, 2} {
					t.Run(fmt.Sprintf("prompt/private=%v/workers=%d", private, workers), func(t *testing.T) {
						checkAbortIsPrompt(t, s, private, workers)
					})
				}
			}
		})
	}
	if abortable < 2 {
		t.Errorf("%d schedulers run on a *core.Pool, want at least 2 (wool, woolgen)", abortable)
	}
}

// TestCheckOptions pins the fail-fast option validation: a request for
// an unsupported capability — including an unsupported MEMBER of a
// non-empty list, the case the CLIs' old empty-list-only checks let
// fall through silently — is reported before pool construction. Every
// row is swept over every capability-gated option: CheckOptions accepts
// the option exactly when the row advertises it, and a pool built with
// an accepted option computes fib(12).
func TestCheckOptions(t *testing.T) {
	const workers = 2
	job, want := fibw.Job(12, 1), fibw.Serial(12)
	for _, s := range sched.All() {
		caps := s.Caps()
		type gated struct {
			name      string
			opts      sched.Options
			supported bool
		}
		cases := []gated{
			{"Trace", sched.Options{Trace: trace.New(workers, 0)}, caps.Trace},
			{"Chaos", sched.Options{Chaos: chaos.NewInjector(workers, chaos.Profiles()[0], 1)}, caps.Chaos},
			{"Watchdog", sched.Options{Watchdog: time.Second}, caps.Watchdog},
			{"PrivateTasks", sched.Options{PrivateTasks: true}, caps.PrivateTasks},
		}
		for _, pol := range steal.Policies() {
			cases = append(cases, gated{"Steal.Policy=" + pol,
				sched.Options{Steal: steal.Config{Policy: pol}}, slices.Contains(caps.StealPolicies, pol)})
		}
		for _, c := range cases {
			c.opts.Workers = workers
			err := sched.CheckOptions(caps, c.opts)
			if (err == nil) != c.supported {
				t.Errorf("%s %s: advertised=%v, CheckOptions err = %v", s.Name(), c.name, c.supported, err)
				continue
			}
			if err != nil {
				if field, _, _ := strings.Cut(c.name, "="); !strings.Contains(err.Error(), field) {
					t.Errorf("%s %s: error does not name the option: %v", s.Name(), c.name, err)
				}
				continue
			}
			p := s.NewPool(c.opts)
			got := p.RunRec(job)
			p.Close()
			if got != want {
				t.Errorf("%s %s: fib(12) = %d, want %d", s.Name(), c.name, got, want)
			}
		}
	}

	wool, _ := sched.Lookup("wool")
	gon, _ := sched.Lookup("gonative")
	wcaps, gcaps := wool.Caps(), gon.Caps()
	if len(gcaps.StealPolicies) != 0 {
		t.Fatal("test premise: gonative advertises no steal policies")
	}
	if err := sched.CheckOptions(wcaps, sched.Options{}); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}

	// Membership, not just list presence: wool advertises steal
	// policies, but not THIS value.
	err := sched.CheckOptions(wcaps, sched.Options{Steal: steal.Config{Policy: "bogus"}})
	if err == nil || !strings.Contains(err.Error(), "Steal.Policy") {
		t.Fatalf("unsupported policy member: err = %v", err)
	}

	// Capability-less backend: every knob is a violation, and they are
	// all reported at once (errors.Join).
	err = sched.CheckOptions(gcaps, sched.Options{
		PrivateTasks: true,
		Watchdog:     time.Second,
		Steal:        steal.Config{Policy: wcaps.StealPolicies[0]},
	})
	if err == nil {
		t.Fatal("gonative accepted private tasks + watchdog + steal policy")
	}
	for _, wantSub := range []string{"PrivateTasks", "Watchdog", "Steal.Policy"} {
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("joined error missing %s: %v", wantSub, err)
		}
	}
}
