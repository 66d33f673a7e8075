package serve

// TestServeSoak is the sustained-load self-healing harness (`make
// serve-soak` runs it for 10s; plain `go test` runs a 2s smoke). A
// seeded mixed workload — healthy tenants at ~1.5× their lane capacity,
// a panicking tenant, and a slow tenant with doomed deadlines — runs
// against serve-level chaos (failed Resets, failing probes), and the
// run asserts the healing invariants: healthy traffic stays ≥99%
// successful, the failing tenant's breaker opens and half-opens, at
// least one lane is quarantined and replaced, the accounting identity
// holds, and shutdown leaks no goroutines.

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/resilience"
	"gowool/internal/workloads/fibw"
)

var (
	soakDur  = flag.Duration("serve.soak", 2*time.Second, "serve soak duration (make serve-soak raises it)")
	soakSeed = flag.Uint64("serve.soakseed", 0x50a45eed, "serve soak replay seed")
)

// TestServeSoak drives the full self-healing stack under sustained
// mixed load. Failure messages carry the replay line.
func TestServeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	seed := *soakSeed
	dur := *soakDur
	replay := fmt.Sprintf("replay: go test ./internal/serve/ -run TestServeSoak -serve.soak=%v -serve.soakseed=%#x", dur, seed)
	t.Log(replay)

	baseGoroutines := runtime.NumGoroutine()

	var rates chaos.ServeRates
	rates[chaos.ServeLaneResetFail] = 16384 // 25% of Resets fail → quarantine
	rates[chaos.ServeProbeFail] = 8192      // 12.5% of probes fail → probe retries
	inj := chaos.NewServeInjector(rates, seed)
	s, err := New(Options{
		Workers:   6,
		LaneWidth: 1,
		// Small queues so overload sheds rather than buffering the storm.
		MaxPending: 64,
		Tenants: []Tenant{
			{Name: "good0", Weight: 2},
			{Name: "good1", Weight: 2},
			{Name: "bad", Weight: 1},
			{Name: "slow", Weight: 1},
		},
		Chaos: inj,
		Resilience: resilience.Options{
			Seed: seed,
			Breaker: resilience.BreakerConfig{
				Window: time.Second, Buckets: 4, MinSamples: 8, FailureRate: 0.5,
				// Short cooldown so the breaker half-opens several times
				// inside the soak window.
				Cooldown: 200 * time.Millisecond, HalfOpenProbes: 2,
			},
			Estimator:  resilience.EstimatorConfig{MinSamples: 4},
			Retry:      resilience.RetryConfig{MaxRetries: 1, BaseBackoff: time.Millisecond},
			Quarantine: resilience.QuarantineConfig{FailureStreak: 5, ProbeBackoff: time.Millisecond},
		},
	})
	if err != nil {
		t.Fatalf("%v (%s)", err, replay)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var goodOK, goodBad atomic.Int64
	wantFib := fibw.Serial(14)
	// Every client collects each ticket by joining it or by polling it,
	// drawn from its own seeded stream, so both takers of a mailed
	// ticket stay under load for the whole soak.
	clients := 0
	modes := func() chaos.RNG {
		clients++
		return chaos.NewRNG(seed ^ (uint64(clients) * 0x9e3779b97f4a7c15))
	}

	// Healthy closed-loop clients: 3 per 2-lane tenant ≈ 1.5× capacity.
	for _, tenant := range []string{"good0", "good1"} {
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func(tenant string, modes chaos.RNG) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					tk, err := s.Submit(context.Background(), tenant, Rec(fibw.Job(14, 1)))
					if err != nil {
						// Overload shed: not a failure, back off a beat.
						time.Sleep(200 * time.Microsecond)
						continue
					}
					if v, werr := modeOf(modes.Next()).wait(tk); werr != nil || v != wantFib {
						goodBad.Add(1)
					} else {
						goodOK.Add(1)
					}
				}
			}(tenant, modes())
		}
	}

	// The failing tenant: every request panics; retry-safe so the retry
	// budget drains and bounds the amplification.
	wg.Add(1)
	go func(modes chaos.RNG) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tk, err := s.SubmitWith(context.Background(), "bad", boomJob("soak-bad"), SubmitOptions{Retryable: true})
			if err != nil {
				// Breaker open (or overload): shed at admission.
				time.Sleep(200 * time.Microsecond)
				continue
			}
			modeOf(modes.Next()).wait(tk)
		}
	}(modes())

	// The slow tenant alternates: trainable spins (successes teach the
	// estimator), doomed deadlines (shed once trained), and mid-flight
	// cancellations (keep the abort→Reset→chaos→quarantine path hot).
	wg.Add(1)
	go func(modes chaos.RNG) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m := modeOf(modes.Next())
			switch i % 4 {
			case 0, 1: // train
				tk, err := s.Submit(context.Background(), "slow", spinJob(1, 2*time.Millisecond))
				if err == nil {
					m.wait(tk)
				}
			case 2: // doomed deadline: shed once the estimator trusts "spin"
				ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
				if tk, err := s.Submit(ctx, "slow", spinJob(1, 2*time.Millisecond)); err == nil {
					m.wait(tk)
				}
				cancel()
			default: // explicit mid-flight cancel
				ctx, cancel := context.WithCancel(context.Background())
				tk, err := s.Submit(ctx, "slow", spinJob(2, 2*time.Millisecond))
				if err == nil {
					go func() {
						time.Sleep(300 * time.Microsecond)
						cancel()
					}()
					m.wait(tk)
				}
				cancel()
			}
		}
	}(modes())

	time.Sleep(dur)
	close(stop)
	wg.Wait()
	st := s.Stats()
	h := s.Health()
	s.Close()

	// Healthy traffic must stay ≥99% successful through the storm.
	ok, bad := goodOK.Load(), goodBad.Load()
	if ok == 0 {
		t.Fatalf("no healthy request completed (%s)", replay)
	}
	if ratio := float64(ok) / float64(ok+bad); ratio < 0.99 {
		t.Errorf("healthy success ratio = %.4f (%d ok, %d bad), want >= 0.99 (%s)", ratio, ok, bad, replay)
	}

	byName := map[string]TenantStats{}
	for _, ts := range st.Tenants {
		byName[ts.Name] = ts
	}
	hByName := map[string]TenantHealth{}
	for _, th := range h.Tenants {
		hByName[th.Name] = th
	}

	// The failing tenant's breaker must have opened and then half-opened.
	bb := hByName["bad"].Breaker
	if bb == nil || bb.Opened < 1 || bb.HalfOpened < 1 {
		t.Errorf("bad tenant breaker = %+v, want opened >= 1 and half-opened >= 1 (%s)", bb, replay)
	}
	if byName["bad"].ShedCircuitOpen < 1 {
		t.Errorf("bad tenant ShedCircuitOpen = %d, want >= 1 (%s)", byName["bad"].ShedCircuitOpen, replay)
	}
	if byName["bad"].Retried < 1 {
		t.Errorf("bad tenant Retried = %d, want >= 1 (%s)", byName["bad"].Retried, replay)
	}
	// The slow tenant's doomed deadlines must have been shed up front.
	if byName["slow"].ShedDeadline < 1 {
		t.Errorf("slow tenant ShedDeadline = %d, want >= 1 (%s)", byName["slow"].ShedDeadline, replay)
	}
	// At least one lane must have been quarantined and replaced.
	if st.Quarantines < 1 || st.Replacements < 1 {
		t.Errorf("quarantines=%d replacements=%d, want >= 1 (%s)", st.Quarantines, st.Replacements, replay)
	}
	// Accounting identity per tenant: every accepted request finished
	// exactly once, every rejection has a cause.
	for name, ts := range byName {
		if ts.Completed+ts.Cancelled+ts.Failed != ts.Submitted {
			t.Errorf("tenant %s: completed+cancelled+failed = %d, submitted = %d (%s)",
				name, ts.Completed+ts.Cancelled+ts.Failed, ts.Submitted, replay)
		}
		if ts.ShedOverload+ts.ShedCircuitOpen+ts.ShedDeadline != ts.Rejected {
			t.Errorf("tenant %s: shed causes sum %d != rejected %d (%s)",
				name, ts.ShedOverload+ts.ShedCircuitOpen+ts.ShedDeadline, ts.Rejected, replay)
		}
	}

	// Zero goroutine leaks at shutdown (allow the runtime a moment to
	// retire worker goroutines).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseGoroutines+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d now vs %d at start (%s)\n%s",
				runtime.NumGoroutine(), baseGoroutines, replay, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	t.Logf("soak %v: good ok=%d bad=%d | bad tenant: submitted=%d shedCircuit=%d retried=%d breaker=%+v | slow: shedDeadline=%d cancelled=%d | quarantines=%d replacements=%d (%s)",
		dur, ok, bad, byName["bad"].Submitted, byName["bad"].ShedCircuitOpen, byName["bad"].Retried, bb,
		byName["slow"].ShedDeadline, byName["slow"].Cancelled, st.Quarantines, st.Replacements, replay)
}
