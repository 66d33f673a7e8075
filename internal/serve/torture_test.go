package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/resilience"
	"gowool/internal/sched"
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/stress"
)

// tortureWorkers is the server's worker budget for every torture run;
// the host may have a single core, so GOMAXPROCS is raised around the
// suite.
const tortureWorkers = 4

// TestServeChaosTorture extends the chaos-torture matrix to the
// serving path: concurrent submitters drive a mixed fib/stress request
// stream through chaos-perturbed lanes, with a random subset of
// requests given deadlines short enough to cancel mid-flight. Every
// completed request must still produce the serial answer — in
// particular the request AFTER a mid-flight abort, which runs on the
// same Reset pool. The lanes are two workers wide and, like every
// lane, run private tasks: the sweep must have crossed both things only
// such a lane does, a trip-wire publication and an abort that reaches
// private descriptors. Each subtest name and failure message carries
// the profile and seed that replay the run byte-for-byte.
func TestServeChaosTorture(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	profiles := chaos.Profiles()
	if len(profiles) < 3 {
		t.Fatalf("want at least 3 built-in chaos profiles, have %d", len(profiles))
	}
	seeds := []uint64{0x5eed, 0xdead}
	t.Run(served, func(t *testing.T) {
		var cancelled int
		var publications int64
		for _, prof := range profiles {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/seed=%#x", prof.Name, seed), func(t *testing.T) {
					c, p := runServeTorture(t, prof, seed)
					cancelled += c
					publications += p
				})
			}
		}
		// The short deadlines must actually have interrupted runs
		// somewhere in the matrix, or the sweep silently stopped
		// covering the abort/Reset path; likewise the lanes' thieves
		// must have tripped a wire.
		if cancelled == 0 {
			t.Error("no request in the whole matrix was cancelled mid-flight")
		}
		if publications == 0 {
			t.Error("no trip-wire publication on any lane in the whole matrix")
		}
	})
}

// TestServeQuarantineTorture is the quarantine matrix: every mid-flight
// abort's Reset is chaos-failed (forcing quarantine) and a third of the
// recovery probes fail (forcing probe-retry rounds), under two
// replayable seeds. Every lane must heal — the fib submitted after each
// abort must produce the serial answer — and at least one quarantine
// must have run per cell.
func TestServeQuarantineTorture(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, seed := range []uint64{0x5eed, 0xdead} {
		t.Run(fmt.Sprintf("%s/seed=%#x", served, seed), func(t *testing.T) {
			runQuarantineTorture(t, seed)
		})
	}
}

// runQuarantineTorture is one quarantine-torture cell.
func runQuarantineTorture(t *testing.T, seed uint64) {
	t.Helper()
	replay := fmt.Sprintf("replay: seed=%#x", seed)
	var rates chaos.ServeRates
	rates[chaos.ServeLaneResetFail] = 65535 // every Reset fails
	rates[chaos.ServeProbeFail] = 21845     // ~1/3 of probes fail
	inj := chaos.NewServeInjector(rates, seed)
	s, err := New(Options{
		Workers:   tortureWorkers,
		LaneWidth: 1,
		Chaos:     inj,
		Resilience: resilience.Options{
			DisableDeadline: true, // the aborts below must run, not shed
			Quarantine:      resilience.QuarantineConfig{FailureStreak: -1, ProbeBackoff: time.Millisecond},
		},
	})
	if err != nil {
		t.Fatalf("%s: %v", replay, err)
	}
	defer s.Close()

	wantFib := fibw.Serial(12)
	const rounds = 8
	cancelled := 0
	// Both takers, mixed from the seed: a joined spin is aborted on the
	// submitter, and its lane handed back for the quarantine.
	modes := chaos.NewRNG(seed ^ 0x7a6b)
	for i := 0; i < rounds; i++ {
		// A spin request aborted mid-flight poisons its lane; the
		// chaos-failed Reset forces the quarantine/replace/probe cycle.
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		tk, err := s.Submit(ctx, "", spinJob(4, 200*time.Microsecond))
		if err != nil {
			cancel()
			t.Fatalf("round %d: submit: %v (%s)", i, err, replay)
		}
		_, werr := modeOf(modes.Next()).wait(tk)
		cancel()
		switch {
		case werr == nil:
		case errors.Is(werr, context.DeadlineExceeded) || errors.Is(werr, context.Canceled):
			cancelled++
		default:
			t.Fatalf("round %d: %v (%s)", i, werr, replay)
		}
		// The replacement pool (or the untouched one, when the spin
		// finished in time) must serve the follow-up correctly.
		fk, err := s.Submit(context.Background(), "", Rec(fibw.Job(12, 1)))
		if err != nil {
			t.Fatalf("round %d: fib submit: %v (%s)", i, err, replay)
		}
		if v, ferr := modeOf(modes.Next()).wait(fk); ferr != nil || v != wantFib {
			t.Fatalf("round %d: post-abort fib = %d err=%v, want %d (%s)", i, v, ferr, wantFib, replay)
		}
	}
	if cancelled == 0 {
		t.Fatalf("no round aborted mid-flight — the cell stopped covering quarantine (%s)", replay)
	}
	// A quarantine cycle runs asynchronously to the request stream: the
	// last request can finish on another lane while a quarantined lane
	// has its entry counted but its first replacement still in flight —
	// or while a lane a borrower condemned waits for its goroutine to
	// wake, still "serving". The counter invariant only holds at
	// quiescence, so wait for one snapshot that shows every lane in
	// rotation and every counted entry replaced.
	var quarantines, replacements int64
	quiet := time.Now().Add(10 * time.Second)
	for {
		lanes := s.Health().Lanes
		serving := true
		quarantines, replacements = 0, 0
		for _, lh := range lanes {
			serving = serving && lh.State == "serving"
			quarantines += lh.Quarantines
			replacements += lh.Replacements
		}
		if serving && quarantines >= 1 && replacements >= quarantines {
			break
		}
		if time.Now().After(quiet) {
			t.Fatalf("no quiescent snapshot with quarantines >= 1 and replacements >= quarantines: %+v (%s)", lanes, replay)
		}
		time.Sleep(time.Millisecond)
	}
	if fired := inj.Injected(); fired[chaos.ServeLaneResetFail] < 1 {
		t.Fatalf("lane-reset-fail never fired: %v (%s)", fired, replay)
	}
	st := s.Stats().Tenants[0]
	if st.Completed+st.Cancelled+st.Failed != st.Submitted {
		t.Fatalf("accounting: %+v (%s)", st, replay)
	}
	t.Logf("%d/%d aborted, %d quarantines, %d replacements, %d probes failed (%s)",
		cancelled, rounds, quarantines, replacements, inj.Injected()[chaos.ServeProbeFail], replay)
}

// spinJob is the torture sweep's slow request: a small task tree whose
// leaves busy-spin, so a request takes a few milliseconds and a 1-4ms
// deadline lands mid-flight. Completed value is the leaf count.
func spinJob(depth int64, spin time.Duration) Job {
	return Rec(sched.RecJob{
		Name: "spin",
		Root: depth,
		Leaf: func(n int64) (int64, bool) {
			if n > 0 {
				return 0, false
			}
			end := time.Now().Add(spin)
			for time.Now().Before(end) {
			}
			return 1, true
		},
		Split: func(n int64) (inline, spawned int64) { return n - 1, n - 1 },
	})
}

// runServeTorture is one cell of the matrix: one chaos profile, one
// seed. It returns the number of requests cancelled
// mid-flight and the trip-wire publications on the lanes' pools, so the
// caller can check the sweep exercised the abort/Reset path, on private
// lanes, at all.
func runServeTorture(t *testing.T, prof chaos.Profile, seed uint64) (cancelled int, publications int64) {
	t.Helper()
	const (
		laneWidth    = 2
		submitters   = 4
		perSubmitter = 10
	)
	replay := fmt.Sprintf("replay: profile=%s seed=%#x", prof.Name, seed)
	s, err := New(Options{
		Workers:   tortureWorkers,
		LaneWidth: laneWidth,
		ConfigurePool: func(lane int, o *sched.Options) {
			// Each lane gets its own deterministic injector stream.
			o.Chaos = chaos.NewInjector(laneWidth, prof, seed+uint64(lane)*0x9e3779b9)
		},
		// The deadlined spin requests here exist to land mid-flight and
		// exercise abort/Reset; with deadline admission on, the
		// estimator would learn the spin time and shed them at Submit.
		Resilience: resilience.Options{DisableDeadline: true},
	})
	if err != nil {
		t.Fatalf("%s: %v", replay, err)
	}
	defer s.Close()
	for _, l := range s.lanes {
		if !l.opts.PrivateTasks {
			t.Fatalf("lane %d runs without private tasks (%s)", l.idx, replay)
		}
	}

	wantFib := fibw.Serial(12)
	wantStress := stress.Serial(4, 50)
	const spinDepth, spinLeaves = 4, int64(16)

	type outcome struct {
		completed, cancelled int
		err                  error
	}
	results := make(chan outcome, submitters)
	for g := 0; g < submitters; g++ {
		g := g
		go func() {
			var out outcome
			defer func() { results <- out }()
			rng := chaos.NewRNG(seed ^ (uint64(g+1) * 0x9e3779b97f4a7c15))
			for i := 0; i < perSubmitter; i++ {
				r := rng.Next()
				ctx := context.Background()
				deadlined := r&0xc == 0 // ~1 in 4 requests
				var cancel context.CancelFunc
				var job Job
				var want int64
				switch {
				case deadlined:
					// Slow enough that a short deadline can land
					// mid-flight; fast enough that some complete, so
					// both outcomes stay covered.
					job, want = spinJob(spinDepth, 200*time.Microsecond), spinLeaves
					d := time.Duration(1+(r>>8)%4) * time.Millisecond
					ctx, cancel = context.WithTimeout(ctx, d)
				case r&1 == 0:
					job, want = Rec(fibw.Job(12, 1)), wantFib
				default:
					job, want = Rec(stress.Job(4, 50, 1)), wantStress
				}
				tk, err := s.Submit(ctx, "", job)
				if err != nil {
					if cancel != nil {
						cancel()
					}
					out.err = fmt.Errorf("submitter %d req %d: submit: %v (%s)", g, i, err, replay)
					return
				}
				v, werr := modeOf(r).wait(tk) // the top bit; the draws above use the low ones
				if cancel != nil {
					cancel()
				}
				switch {
				case werr == nil:
					if v != want {
						out.err = fmt.Errorf("submitter %d req %d: got %d, want %d (%s)", g, i, v, want, replay)
						return
					}
					out.completed++
				case errors.Is(werr, context.DeadlineExceeded) || errors.Is(werr, context.Canceled):
					if !deadlined {
						out.err = fmt.Errorf("submitter %d req %d: cancelled without a deadline: %v (%s)", g, i, werr, replay)
						return
					}
					out.cancelled++
				default:
					out.err = fmt.Errorf("submitter %d req %d: %v (%s)", g, i, werr, replay)
					return
				}
			}
		}()
	}
	var completed int
	for g := 0; g < submitters; g++ {
		out := <-results
		if out.err != nil {
			t.Fatal(out.err)
		}
		completed += out.completed
		cancelled += out.cancelled
	}
	if completed+cancelled != submitters*perSubmitter {
		t.Fatalf("accounted %d of %d requests (%s)", completed+cancelled, submitters*perSubmitter, replay)
	}
	// Every ticket has finished, so the lanes are idle and their pools'
	// counters exact (no Reset fails here: the pools are the first ones).
	publications = lanePoolStats(s).Publications
	t.Logf("%d completed, %d cancelled, %d publications (%s)", completed, cancelled, publications, replay)
	return cancelled, publications
}
