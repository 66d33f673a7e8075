package serve

// A mailed ticket's lane goroutine is woken by a token from one of two
// senders (lane.chooseWake): the submitter, or the lane's timer when the
// goroutine served the lane's last ticket polled and unjoined. A lane's
// first wake is always the submitter's, since the goroutine has served
// nothing yet. These tests pin which sender each kind of traffic gets,
// and that every ticket still finishes under both (invariant 2,
// progress without Wait).

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gowool/internal/resilience"
	"gowool/internal/workloads/fibw"
)

// timerWakes sums the wakes chooseWake gave the timer over s's lanes.
func timerWakes(s *Server) (n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.lanes {
		n += l.timerWakes
	}
	return n
}

// waitAllIdle returns once every lane of s is back in the idle set, so
// that the next Submit mails a lane instead of queueing.
func waitAllIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		idle := len(s.idle)
		s.mu.Unlock()
		if idle == len(s.lanes) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d lanes idle after 10 s", idle, len(s.lanes))
		}
		runtime.Gosched()
	}
}

// TestServeWakeChoice: joined traffic never arms the timer; Done-only
// traffic, fresh and retried, is woken by the timer from its second
// ticket on; and a seeded mix of joined, polled and abandoned tickets
// all finish, with the timer in use too, on one P and on two.
func TestServeWakeChoice(t *testing.T) {
	job, want := Rec(fibw.Job(4, 1)), fibw.Serial(4)

	t.Run("join", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		s, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		const reqs = 1000
		for i := 0; i < reqs; i++ {
			tk, err := s.Submit(context.Background(), "", job)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := tk.Wait(); err != nil || v != want {
				t.Fatalf("fib(4): v=%d err=%v", v, err)
			}
		}
		if n := timerWakes(s); n != 0 {
			t.Fatalf("%d joined requests: %d timer wakes, want none", reqs, n)
		}
	})

	t.Run("poll", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		s, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		const reqs = 200
		for i := 0; i < reqs; i++ {
			waitAllIdle(t, s)
			var g atomic.Bool
			tk, err := s.Submit(context.Background(), "", gateJob(&g, nil, 1))
			if err != nil {
				t.Fatal(err)
			}
			done := tk.Done() // polled before the gate lets it finish
			g.Store(true)
			<-done
			if v, err := tk.Wait(); err != nil || v != 2 {
				t.Fatalf("gated request: v=%d err=%v, want 2, nil", v, err)
			}
		}
		// Every request found the lane idle, so every one woke it.
		if n := timerWakes(s); n != reqs-1 {
			t.Fatalf("%d polled requests: %d timer wakes, want %d", reqs, n, reqs-1)
		}
	})

	// A retried ticket's caller ran nothing and is blocked on Done: the
	// re-dispatch goes through the same choice as Submit. The default
	// retry seed draws backoffs of 0.8 and 9.9 ms, so the lane is idle
	// again when each retry is mailed.
	t.Run("retry", func(t *testing.T) {
		s, err := New(Options{
			Workers: 1,
			Resilience: resilience.Options{
				DisableBreaker: true,
				Retry:          resilience.RetryConfig{MaxRetries: 2, BaseBackoff: 5 * time.Millisecond},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		tk, err := s.SubmitWith(context.Background(), "", flakyJob("wake-retry", 2), SubmitOptions{Retryable: true})
		if err != nil {
			t.Fatal(err)
		}
		if v, err := poll.wait(tk); err != nil || v != 1 {
			t.Fatalf("retried request: v=%d err=%v, want 1, nil", v, err)
		}
		if st := s.Stats().Tenants[0]; st.Retried != 2 {
			t.Fatalf("stats = %+v, want Retried=2", st)
		}
		if n := timerWakes(s); n != 2 {
			t.Fatalf("a polled request retried twice: %d timer wakes, want 2", n)
		}
	})

	t.Run("mix", func(t *testing.T) {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				s, err := New(Options{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				const clients, reqs = 3, 300
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						rng := rand.New(rand.NewPCG(0x3a4e, uint64(c)))
						for i := 0; i < reqs; i++ {
							tk, err := s.Submit(context.Background(), "", job)
							if errors.Is(err, ErrOverloaded) {
								continue
							}
							if err != nil {
								t.Error(err)
								return
							}
							if rng.IntN(3) == 2 {
								continue // fire and forget
							}
							if v, err := modeOf(rng.Uint64()).wait(tk); err != nil || v != want {
								t.Errorf("fib(4): v=%d err=%v", v, err)
								return
							}
						}
					}()
				}
				wg.Wait()
				deadline := time.Now().Add(10 * time.Second)
				for st := s.Stats().Tenants[0]; st.Completed != st.Submitted; st = s.Stats().Tenants[0] {
					if time.Now().After(deadline) {
						t.Fatalf("stats = %+v: abandoned tickets never finished", st)
					}
					time.Sleep(time.Millisecond)
				}
				st := s.Stats().Tenants[0]
				if st.Pending != 0 || st.Cancelled+st.Failed != 0 || st.Submitted+st.Rejected != clients*reqs {
					t.Fatalf("stats = %+v, want every accepted ticket completed and Submitted+Rejected = %d", st, clients*reqs)
				}
				if timerWakes(s) == 0 {
					t.Fatal("no timer wake: the mix ran under the submitters' tokens alone")
				}
			})
		}
	})
}
