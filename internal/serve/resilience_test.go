package serve

// Tests for the self-healing layer (DESIGN.md §17): breaker admission,
// deadline-aware shedding, server-side retries, lane quarantine, and
// the Health/Stats observability surface.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/resilience"
	"gowool/internal/sched"
	"gowool/internal/workloads/fibw"
)

// boomJob always panics at its leaves. Distinct Name per test so the
// estimator classes never collide across tests.
func boomJob(name string) Job {
	return Rec(sched.RecJob{
		Name: name,
		Root: 4,
		Leaf: func(n int64) (int64, bool) {
			if n <= 0 {
				panic("boom: " + name)
			}
			return 0, false
		},
		Split: func(n int64) (inline, spawned int64) { return n - 1, n - 2 },
	})
}

// mustWaitFib submits one fib(12) request, collects it in mode m and
// requires the serial answer.
func mustWaitFib(t *testing.T, s *Server, m waitMode, tenant string) {
	t.Helper()
	tk, err := s.Submit(context.Background(), tenant, Rec(fibw.Job(12, 1)))
	if err != nil {
		t.Fatalf("submit fib: %v", err)
	}
	v, err := m.wait(tk)
	if want := fibw.Serial(12); err != nil || v != want {
		t.Fatalf("fib(12): v=%d err=%v, want %d, nil", v, err, want)
	}
}

// TestServeBreakerOpensAndRecovers drives a tenant through the whole
// breaker cycle: a failure storm opens it (submissions shed with
// ErrCircuitOpen), the cooldown moves it to half-open, and successful
// probes close it again.
func TestServeBreakerOpensAndRecovers(t *testing.T) {
	s, err := New(Options{
		Workers: 1,
		Resilience: resilience.Options{
			Breaker: resilience.BreakerConfig{
				Window: 10 * time.Second, MinSamples: 4, FailureRate: 0.5,
				Cooldown: 200 * time.Millisecond, HalfOpenProbes: 1,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Storm: 4 panicking requests reach MinSamples at failure rate 1.0.
	for i := 0; i < 4; i++ {
		tk, err := s.Submit(context.Background(), "", boomJob("breaker-boom"))
		if err != nil {
			t.Fatalf("storm submit %d: %v", i, err)
		}
		if _, werr := tk.Wait(); werr == nil {
			t.Fatalf("storm request %d did not fail", i)
		}
	}
	if _, err := s.Submit(context.Background(), "", boomJob("breaker-boom")); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("submit on open breaker: err = %v, want ErrCircuitOpen", err)
	}
	h := s.Health()
	if h.Tenants[0].Breaker == nil || h.Tenants[0].Breaker.State != "open" || h.Tenants[0].Breaker.Opened != 1 {
		t.Fatalf("breaker health = %+v, want open with opened=1", h.Tenants[0].Breaker)
	}
	if st := s.Stats(); st.Tenants[0].ShedCircuitOpen == 0 || st.Tenants[0].Rejected != st.Tenants[0].ShedCircuitOpen {
		t.Fatalf("stats = %+v, want Rejected == ShedCircuitOpen > 0", st.Tenants[0])
	}

	// Past the cooldown a good request is admitted as the half-open
	// probe; its success closes the breaker (HalfOpenProbes = 1).
	time.Sleep(250 * time.Millisecond)
	mustWaitFib(t, s, join, "")
	h = s.Health()
	bh := h.Tenants[0].Breaker
	if bh.State != "closed" || bh.HalfOpened != 1 || bh.Closed != 1 {
		t.Fatalf("post-recovery breaker = %+v, want closed with halfOpened=1 closed=1", bh)
	}
	// Closed again: normal traffic flows.
	mustWaitFib(t, s, join, "")
}

// TestServeBreakerProbeFailureReopens pins the half-open → open edge on
// the serving path: the probe request panics and the next submission is
// shed again.
func TestServeBreakerProbeFailureReopens(t *testing.T) {
	s, err := New(Options{
		Workers: 1,
		Resilience: resilience.Options{
			Breaker: resilience.BreakerConfig{
				Window: 10 * time.Second, MinSamples: 4, FailureRate: 0.5,
				Cooldown: 100 * time.Millisecond, HalfOpenProbes: 1,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		tk, err := s.Submit(context.Background(), "", boomJob("reopen-boom"))
		if err != nil {
			t.Fatal(err)
		}
		tk.Wait()
	}
	time.Sleep(150 * time.Millisecond)
	tk, err := s.Submit(context.Background(), "", boomJob("reopen-boom"))
	if err != nil {
		t.Fatalf("probe submit: %v", err)
	}
	if _, werr := tk.Wait(); werr == nil {
		t.Fatal("probe request did not fail")
	}
	if _, err := s.Submit(context.Background(), "", boomJob("reopen-boom")); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("submit after failed probe: err = %v, want ErrCircuitOpen", err)
	}
	if bh := s.Health().Tenants[0].Breaker; bh.Opened != 2 {
		t.Fatalf("breaker opened = %d, want 2 (re-opened by the failed probe)", bh.Opened)
	}
}

// TestServeDeadlineAdmission trains the estimator on a slow class, then
// checks a submission whose deadline the class cannot meet is shed up
// front with ErrDeadlineUnmeetable — and that other classes are
// unaffected.
func TestServeDeadlineAdmission(t *testing.T) {
	s, err := New(Options{
		Workers: 1,
		Resilience: resilience.Options{
			Estimator: resilience.EstimatorConfig{Alpha: 0.5, MinSamples: 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Train: three 5ms spins observed (busy-wait, so the measured
	// service time is always >= 5ms).
	for i := 0; i < 3; i++ {
		tk, err := s.Submit(context.Background(), "", spinJob(1, 5*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if _, werr := tk.Wait(); werr != nil {
			t.Fatalf("training spin %d: %v", i, werr)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := s.Submit(ctx, "", spinJob(1, 5*time.Millisecond)); !errors.Is(err, ErrDeadlineUnmeetable) {
		t.Fatalf("doomed submit: err = %v, want ErrDeadlineUnmeetable", err)
	}
	if st := s.Stats().Tenants[0]; st.ShedDeadline != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want ShedDeadline=1 Rejected=1", st)
	}
	// An untrained class with the same tight deadline is admitted (and
	// completes well inside it).
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	tk, err := s.Submit(ctx2, "", Rec(fibw.Job(10, 1)))
	if err != nil {
		t.Fatalf("untrained class submit: %v", err)
	}
	if _, werr := tk.Wait(); werr != nil {
		t.Fatalf("untrained class: %v", werr)
	}
}

// flakyJob panics on its first `fails` runs and then succeeds with the
// value 1 — the retry machinery's canonical customer.
func flakyJob(name string, fails int32) Job {
	var runs atomic.Int32
	return Rec(sched.RecJob{
		Name: name,
		Root: 0,
		Leaf: func(n int64) (int64, bool) {
			if runs.Add(1) <= fails {
				panic("flaky: " + name)
			}
			return 1, true
		},
		Split: func(n int64) (inline, spawned int64) { return 0, 0 },
	})
}

// TestServeRetryHealsTransientFailure: a retry-safe request that fails
// twice and then succeeds is healed server-side — the caller sees only
// the success.
func TestServeRetryHealsTransientFailure(t *testing.T) {
	bothTakers(t, func(t *testing.T, m waitMode) {
		s, err := New(Options{
			Workers: 1,
			Resilience: resilience.Options{
				Retry: resilience.RetryConfig{MaxRetries: 2, BaseBackoff: time.Millisecond},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		tk, err := s.SubmitWith(context.Background(), "", flakyJob("flaky-2", 2), SubmitOptions{Retryable: true})
		if err != nil {
			t.Fatal(err)
		}
		if !tk.Retryable {
			t.Fatal("ticket not marked retryable")
		}
		v, werr := m.wait(tk)
		if werr != nil || v != 1 {
			t.Fatalf("retried request: v=%d err=%v, want 1, nil", v, werr)
		}
		st := s.Stats().Tenants[0]
		if st.Retried != 2 || st.Completed != 1 || st.Failed != 0 {
			t.Fatalf("stats = %+v, want Retried=2 Completed=1 Failed=0", st)
		}
	})
}

// TestServeRetryAttemptBound: a persistently failing retry-safe request
// stops at MaxRetries and surfaces its last error.
func TestServeRetryAttemptBound(t *testing.T) {
	bothTakers(t, func(t *testing.T, m waitMode) {
		s, err := New(Options{
			Workers: 1,
			Resilience: resilience.Options{
				Retry: resilience.RetryConfig{MaxRetries: 2, BaseBackoff: time.Millisecond},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		tk, err := s.SubmitWith(context.Background(), "", boomJob("retry-bound"), SubmitOptions{Retryable: true})
		if err != nil {
			t.Fatal(err)
		}
		var pe *PanicError
		if _, werr := m.wait(tk); !errors.As(werr, &pe) {
			t.Fatalf("err = %v, want *PanicError after exhausted retries", werr)
		}
		st := s.Stats().Tenants[0]
		if st.Retried != 2 || st.Failed != 1 {
			t.Fatalf("stats = %+v, want Retried=2 Failed=1", st)
		}
	})
}

// TestServeRetryIgnoredWhenDisabled: with retries disabled the
// Retryable mark is a no-op and the ticket fails on its first attempt.
func TestServeRetryIgnoredWhenDisabled(t *testing.T) {
	s, err := New(Options{
		Workers:    1,
		Resilience: resilience.Options{DisableRetry: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tk, err := s.SubmitWith(context.Background(), "", boomJob("retry-off"), SubmitOptions{Retryable: true})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Retryable {
		t.Fatal("ticket marked retryable with retries disabled")
	}
	if _, werr := tk.Wait(); werr == nil {
		t.Fatal("request did not fail")
	}
	if st := s.Stats().Tenants[0]; st.Retried != 0 {
		t.Fatalf("retried = %d, want 0", st.Retried)
	}
	if h := s.Health(); h.Tenants[0].RetryTokens != -1 {
		t.Fatalf("retry tokens = %v, want -1 (disabled)", h.Tenants[0].RetryTokens)
	}
}

// TestServeCloseWithPendingRetry: Close finalizes a ticket that is
// backing off for a retry with ErrClosed — exactly once, no hang.
func TestServeCloseWithPendingRetry(t *testing.T) {
	bothTakers(t, func(t *testing.T, m waitMode) {
		s, err := New(Options{
			Workers: 1,
			Resilience: resilience.Options{
				// A long backoff so the ticket is reliably mid-backoff when
				// Close runs.
				Retry: resilience.RetryConfig{MaxRetries: 1, BaseBackoff: 10 * time.Second, MaxBackoff: 10 * time.Second},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tk, err := s.SubmitWith(context.Background(), "", boomJob("close-retry"), SubmitOptions{Retryable: true})
		if err != nil {
			t.Fatal(err)
		}
		// Wait until the failing attempt finished and the retry is armed.
		deadline := time.Now().Add(5 * time.Second)
		for s.Stats().Tenants[0].Retried == 0 {
			if time.Now().After(deadline) {
				t.Fatal("retry never armed")
			}
			time.Sleep(time.Millisecond)
		}
		s.Close()
		if _, werr := m.wait(tk); !errors.Is(werr, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", werr)
		}
	})
}

// TestServeQuarantineOnFailureStreak: enough consecutive failures pull
// the lane from rotation; the replacement pool then serves normally and
// Health reports the episode.
func TestServeQuarantineOnFailureStreak(t *testing.T) {
	bothTakers(t, func(t *testing.T, m waitMode) {
		s, err := New(Options{
			Workers: 1,
			Resilience: resilience.Options{
				DisableBreaker: true, // keep admitting the failure storm
				Quarantine:     resilience.QuarantineConfig{FailureStreak: 3, ProbeBackoff: time.Millisecond},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < 3; i++ {
			tk, err := s.Submit(context.Background(), "", boomJob("streak"))
			if err != nil {
				t.Fatal(err)
			}
			m.wait(tk)
		}
		// The quarantine runs between requests; the next request lands on
		// the replacement pool.
		mustWaitFib(t, s, m, "")
		h := s.Health().Lanes[0]
		if h.Quarantines < 1 || h.Replacements < 1 || h.Probes < 1 {
			t.Fatalf("lane health = %+v, want >=1 quarantine/replacement/probe", h)
		}
		if h.FailureStreak != 0 || h.State != "serving" {
			t.Fatalf("lane health = %+v, want streak reset and serving", h)
		}
		if st := s.Stats(); st.Quarantines < 1 || st.Replacements < 1 {
			t.Fatalf("stats = %+v, want quarantine totals >= 1", st)
		}
	})
}

// TestServeChaosResetFailQuarantine: a mid-flight cancellation whose
// Reset is chaos-failed forces the quarantine path; probe-fail chaos
// makes the first probes fail so the probe-retry loop runs too.
func TestServeChaosResetFailQuarantine(t *testing.T) {
	t.Run(served, func(t *testing.T) {
		bothTakers(t, func(t *testing.T, m waitMode) {
			var rates chaos.ServeRates
			rates[chaos.ServeLaneResetFail] = 65535 // every Reset "fails"
			rates[chaos.ServeProbeFail] = 32768     // ~half the probes fail
			inj := chaos.NewServeInjector(rates, 0x0bad5eed)
			s, err := New(Options{
				Workers: 1,
				Chaos:   inj,
				Resilience: resilience.Options{
					Quarantine: resilience.QuarantineConfig{FailureStreak: -1, ProbeBackoff: time.Millisecond},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			var started atomic.Bool
			ctx, cancel := context.WithCancel(context.Background())
			victim, err := s.Submit(ctx, "", cancelJob(ctx, &started, 64))
			if err != nil {
				t.Fatal(err)
			}
			res := m.waitAsync(victim)
			waitTrue(t, &started, "victim dispatch")
			cancel()
			if r := <-res; !errors.Is(r.err, context.Canceled) {
				t.Fatalf("victim err = %v, want context.Canceled", r.err)
			}
			// The replacement pool serves the follow-ups.
			mustWaitFib(t, s, m, "")
			h := s.Health().Lanes[0]
			if h.Quarantines < 1 || h.Replacements < 1 {
				t.Fatalf("lane health = %+v, want a quarantine (replay seed=%#x)", h, inj.Seed())
			}
			if cnt := inj.Injected(); cnt[chaos.ServeLaneResetFail] < 1 {
				t.Fatalf("chaos never fired lane-reset-fail: %v (replay seed=%#x)", cnt, inj.Seed())
			}
		})
	})
}

// TestServeSubmitStormChaos: the submit-storm injection point sheds at
// admission as ErrOverloaded and is accounted as an overload shed.
func TestServeSubmitStormChaos(t *testing.T) {
	var rates chaos.ServeRates
	rates[chaos.ServeSubmitStorm] = 65535
	s, err := New(Options{Workers: 1, Chaos: chaos.NewServeInjector(rates, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Submit(context.Background(), "", Rec(fibw.Job(10, 1))); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("storm submit: err = %v, want ErrOverloaded", err)
	}
	if st := s.Stats().Tenants[0]; st.ShedOverload != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want ShedOverload=1", st)
	}
}

// TestServeResetErrorReplacement pins the real (non-chaos)
// Reset-returns-error branch: a Reset that reports an error must
// quarantine and replace the pool, not leave the poison in place. The
// error is core's own: the job closes the lane's pool under the
// aborted request, so the Reset that follows it is refused.
func TestServeResetErrorReplacement(t *testing.T) {
	bothTakers(t, func(t *testing.T, m waitMode) {
		s, err := New(Options{
			Workers: 1,
			Resilience: resilience.Options{
				Quarantine: resilience.QuarantineConfig{FailureStreak: -1, ProbeBackoff: time.Millisecond},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		var started atomic.Bool
		ctx, cancel := context.WithCancel(context.Background())
		j := cancelRec(ctx, &started, 64)
		leaf := j.Leaf
		j.Leaf = func(n int64) (int64, bool) {
			v, ok := leaf(n)
			if n < 0 {
				// A closed pool refuses Abort, so the leaf aborts first,
				// for the reason the next spawn's poll would give, then
				// closes: "core: Reset on closed Pool".
				p := s.lanes[0].pool.Load()
				p.Abort(ctx.Err())
				p.Close()
			}
			return v, ok
		}
		victim, err := s.Submit(ctx, "", Rec(j))
		if err != nil {
			t.Fatal(err)
		}
		res := m.waitAsync(victim)
		waitTrue(t, &started, "victim dispatch")
		cancel()
		if r := <-res; !errors.Is(r.err, context.Canceled) {
			t.Fatalf("victim err = %v, want context.Canceled", r.err)
		}
		mustWaitFib(t, s, m, "")
		if h := s.Health().Lanes[0]; h.Quarantines < 1 || h.Replacements < 1 {
			t.Fatalf("lane health = %+v, want quarantine after Reset error", h)
		}
	})
}

// TestServeHealthShape pins the Health snapshot's basic shape with the
// defaults on and with everything disabled.
func TestServeHealthShape(t *testing.T) {
	s, err := New(Options{Workers: 2, Tenants: []Tenant{{Name: "a"}, {Name: "b"}}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if len(h.Lanes) != 2 || len(h.Tenants) != 2 {
		t.Fatalf("health shape: %d lanes, %d tenants, want 2/2", len(h.Lanes), len(h.Tenants))
	}
	for _, lh := range h.Lanes {
		if lh.State != "serving" || lh.Poisoned {
			t.Fatalf("fresh lane health = %+v", lh)
		}
	}
	for _, th := range h.Tenants {
		if th.Breaker == nil || th.Breaker.State != "closed" {
			t.Fatalf("fresh tenant breaker = %+v, want closed", th.Breaker)
		}
		if th.RetryTokens <= 0 {
			t.Fatalf("fresh retry tokens = %v, want > 0", th.RetryTokens)
		}
	}
	s.Close()

	s2, err := New(Options{Workers: 1, Resilience: resilience.Options{
		DisableBreaker: true, DisableRetry: true, DisableDeadline: true, DisableQuarantine: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	th := s2.Health().Tenants[0]
	if th.Breaker != nil || th.RetryTokens != -1 {
		t.Fatalf("disabled tenant health = %+v, want nil breaker, tokens -1", th)
	}
}

// TestServePerTenantResilienceOverride: a tenant-level breaker config
// overrides the server default (tenant "frail" trips while "sturdy"
// stays closed under the same storm).
func TestServePerTenantResilienceOverride(t *testing.T) {
	frail := &resilience.TenantConfig{
		Breaker: &resilience.BreakerConfig{
			Window: 10 * time.Second, MinSamples: 2, FailureRate: 0.5,
			Cooldown: 10 * time.Second, HalfOpenProbes: 1,
		},
	}
	s, err := New(Options{
		Workers: 2,
		Tenants: []Tenant{{Name: "frail", Resilience: frail}, {Name: "sturdy"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tenant := range []string{"frail", "sturdy"} {
		for i := 0; i < 2; i++ {
			tk, err := s.Submit(context.Background(), tenant, boomJob("override"))
			if err != nil {
				t.Fatalf("%s submit %d: %v", tenant, i, err)
			}
			tk.Wait()
		}
	}
	if _, err := s.Submit(context.Background(), "frail", boomJob("override")); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("frail submit: err = %v, want ErrCircuitOpen", err)
	}
	// The default MinSamples (20) keeps sturdy closed after 2 failures.
	if _, err := s.Submit(context.Background(), "sturdy", Rec(fibw.Job(10, 1))); err != nil {
		t.Fatalf("sturdy submit: %v", err)
	}
}
