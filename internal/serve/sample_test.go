package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"gowool/internal/resilience"
	"gowool/internal/workloads/fibw"
)

// TestServeEstimatorSamples: a lane measures the service time of every
// request of a class until it holds MinSamples of it, then of one in
// 16, whichever taker runs the request: after N requests it holds
// MinSamples + ⌊(N − MinSamples)/16⌋ samples.
func TestServeEstimatorSamples(t *testing.T) {
	bothTakers(t, func(t *testing.T, m waitMode) {
		s, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		job := Rec(fibw.Job(4, 1))
		const n, minSamples = 8 + 3*16 + 7, 8 // MinSamples' default
		for i := 0; i < n; i++ {
			tk, err := s.Submit(context.Background(), "", job)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.wait(tk); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			want := int64(min(i+1, minSamples))
			if i+1 > minSamples {
				want += int64(i+1-minSamples) / 16
			}
			if got := s.tenants[0].est.Samples(job.class()); got != want {
				t.Fatalf("after %d requests the lane holds %d samples of %q, want %d", i+1, got, job.class(), want)
			}
		}
	})
}

// TestServeEstimatorAdapts bounds what sampling costs deadline
// admission: after three near-zero requests of a class, once it takes
// 5ms a submit under a 1ms deadline is shed within 2 × 16 + 1 slow
// requests, at the default Alpha.
func TestServeEstimatorAdapts(t *testing.T) {
	s, err := New(Options{
		Workers:    1,
		Resilience: resilience.Options{Estimator: resilience.EstimatorConfig{MinSamples: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	run := func(job Job) {
		tk, err := s.Submit(context.Background(), "", job)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	fast, slow := spinJob(0, 0), spinJob(0, 5*time.Millisecond)
	for i := 0; i < 3; i++ {
		run(fast)
	}
	est := s.tenants[0].est
	for k := 1; k <= 2*16+1; k++ {
		run(slow)
		// Ask the estimator first: a submit it would admit runs, and its
		// attempt would count towards the next sample.
		if !est.Unmeetable(slow.class(), time.Millisecond) {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := s.Submit(ctx, "", slow)
		cancel()
		if !errors.Is(err, ErrDeadlineUnmeetable) {
			t.Fatalf("after %d slow requests: submit under a 1ms deadline: err = %v, want ErrDeadlineUnmeetable", k, err)
		}
		t.Logf("shed after %d slow requests", k)
		return
	}
	e, _ := est.Estimate(slow.class())
	t.Fatalf("a 1ms deadline still admitted after 33 requests of 5ms (estimate %v)", e)
}
