package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gowool/internal/resilience"
	"gowool/internal/sched"
)

// latencySpin is how long a timed job spins inside its leaf: long
// enough that a Latency missing the run would be caught by the bound.
const latencySpin = 200 * time.Microsecond

// runStamps records, across every run of a timed job, when its timed
// leaf was first entered and last left, as offsets from epoch: last −
// first is the time the job measured inside itself, every attempt and
// the backoff between them included. Zero first means it never ran.
type runStamps struct{ first, last atomic.Int64 }

func (s *runStamps) inner() time.Duration {
	if s.first.Load() == 0 {
		return 0
	}
	return time.Duration(s.last.Load() - s.first.Load())
}

// timedJob is a recursion of the given depth whose first leaf of each
// run (n < 0) stamps st around body; the other leaves return at once,
// and the spawns between them are where an abort is seen. Completed
// value is depth+1.
func timedJob(name string, depth int64, st *runStamps, body func()) Job {
	return Rec(sched.RecJob{
		Name: name,
		Root: depth,
		Leaf: func(n int64) (int64, bool) {
			if n >= 0 {
				return 1, n == 0
			}
			st.first.CompareAndSwap(0, int64(time.Since(epoch)))
			defer func() { st.last.Store(int64(time.Since(epoch))) }()
			body()
			return 1, true
		},
		Split: func(n int64) (inline, spawned int64) { return -1, n - 1 },
	})
}

// spinFor busy-waits for d.
func spinFor(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// TestServeTicketLatency pins what Ticket.Latency covers, under both
// takers and for every way a ticket finishes: at least the time the job
// measured inside itself — for a retried ticket every attempt and the
// backoff between them — and at most the wall time around Submit …
// Wait. After eight requests of one class, the estimator's service time
// for it lies between the job's spin and the largest Latency.
func TestServeTicketLatency(t *testing.T) {
	bothTakers(t, func(t *testing.T, m waitMode) {
		cases := []struct {
			name string
			// build returns the job, the context to submit under, and what
			// the test does between Submit and collecting the ticket.
			build   func(st *runStamps) (Job, context.Context, func(s *Server))
			retry   bool
			reqs    int
			wantErr func(error) bool
		}{
			{
				name: "ok",
				build: func(st *runStamps) (Job, context.Context, func(*Server)) {
					return timedJob("latency-ok", 1, st, func() { spinFor(latencySpin) }), context.Background(), nil
				},
				reqs:    8,
				wantErr: func(err error) bool { return err == nil },
			},
			{
				name: "cancelled-before-start",
				build: func(st *runStamps) (Job, context.Context, func(*Server)) {
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					return timedJob("latency-precancel", 1, st, func() { spinFor(latencySpin) }), ctx, nil
				},
				wantErr: func(err error) bool { return errors.Is(err, context.Canceled) },
			},
			{
				name: "cancelled-mid-flight",
				build: func(st *runStamps) (Job, context.Context, func(*Server)) {
					var started atomic.Bool
					ctx, cancel := context.WithCancel(context.Background())
					job := timedJob("latency-abort", 64, st, func() {
						if started.Swap(true) {
							return
						}
						spinFor(latencySpin)
						<-ctx.Done()
					})
					return job, ctx, func(*Server) {
						waitTrue(t, &started, "timed request dispatch")
						cancel()
					}
				},
				wantErr: func(err error) bool { return errors.Is(err, context.Canceled) },
			},
			{
				name: "panicked",
				build: func(st *runStamps) (Job, context.Context, func(*Server)) {
					return timedJob("latency-panic", 1, st, func() {
						spinFor(latencySpin)
						panic("latency: boom")
					}), context.Background(), nil
				},
				wantErr: func(err error) bool {
					var pe *PanicError
					return errors.As(err, &pe)
				},
			},
			{
				name: "retried-then-ok",
				build: func(st *runStamps) (Job, context.Context, func(*Server)) {
					var runs atomic.Int32
					return timedJob("latency-retry", 1, st, func() {
						spinFor(latencySpin)
						if runs.Add(1) == 1 {
							panic("latency: flaky")
						}
					}), context.Background(), nil
				},
				retry:   true,
				wantErr: func(err error) bool { return err == nil },
			},
		}
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
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
				var maxLat time.Duration
				var class string
				for i := 0; i < max(c.reqs, 1); i++ {
					var st runStamps
					job, ctx, during := c.build(&st)
					class = job.class()
					t0 := time.Now()
					tk, err := s.SubmitWith(ctx, "", job, SubmitOptions{Retryable: c.retry})
					if err != nil {
						t.Fatal(err)
					}
					res := m.waitAsync(tk)
					if during != nil {
						during(s)
					}
					r := <-res
					wall := time.Since(t0)
					if !c.wantErr(r.err) {
						t.Fatalf("request %d: v=%d err=%v", i, r.v, r.err)
					}
					lat, inner := tk.Latency(), st.inner()
					if lat < inner || lat > wall {
						t.Fatalf("request %d: Latency %v outside [%v measured inside the job, %v wall around Submit … Wait]", i, lat, inner, wall)
					}
					if c.retry && s.Stats().Tenants[0].Retried != 1 {
						t.Fatalf("request %d: stats = %+v, want one retry", i, s.Stats().Tenants[0])
					}
					maxLat = max(maxLat, lat)
				}
				if c.reqs < 8 {
					return
				}
				est, ok := s.tenants[0].est.Estimate(class)
				if !ok || est < latencySpin || est > maxLat {
					t.Fatalf("estimate for %q = %v (trusted %v), want within [%v spin, %v largest Latency]", class, est, ok, latencySpin, maxLat)
				}
			})
		}
	})
}
