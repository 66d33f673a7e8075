//go:build unix

package serve

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gowool/internal/resilience"
	"gowool/internal/workloads/stress"
)

// TestServeDeadlineNeedsNoSpareP: a deadline is kept even when every P
// is running a request. Two one-worker lanes and two clients on two Ps
// leave none spare; each client sends 100 requests of about 5 ms under
// a 1 ms deadline. Every one must fail with context.DeadlineExceeded,
// and Wait must return within 1 ms of the deadline at the p99. A check
// that needs another goroutine to get a P — a timer, a context
// callback — lets most of them run to completion.
//
// A request that completes fails the test at once. The lateness bound
// holds only while the process has its two CPUs: a thread the host
// deschedules cannot poll, and on a 2-vCPU VM both other test binaries
// (go test ./... runs packages in parallel) and the hypervisor take
// CPUs away for 4-8 ms at a time, and two such gaps in a round put its
// p99 over the bound. So a round is judged on lateness only when the
// process ran at least 98 % of 2 CPUs × its wall time: on a 2-vCPU VM
// quiet rounds read 96-100 %, and rounds that shared the CPUs with other
// test binaries 48-95 %. The test passes at the first judged round within
// the bound, fails when every judged round of deadlineRounds missed it,
// and says so when none could be judged.
func TestServeDeadlineNeedsNoSpareP(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	s, err := New(Options{Workers: 2, LaneWidth: 1, Resilience: resilience.Options{DisableDeadline: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const deadlineRounds, judged = 8, 0.98
	var missed []time.Duration
	for round := 1; round <= deadlineRounds; round++ {
		wall, cpu := time.Now(), processCPU(t)
		late := deadlineRound(t, s)
		share := float64(processCPU(t)-cpu) / float64(2*time.Since(wall))
		slices.Sort(late)
		p50, p99 := late[len(late)/2], late[len(late)*99/100]
		t.Logf("round %d: lateness from deadline to Wait p50 %v, p99 %v, max %v; the process ran %.0f%% of 2 CPUs",
			round, p50, p99, late[len(late)-1], 100*share)
		if share < judged {
			continue
		}
		if p99 <= time.Millisecond {
			return
		}
		missed = append(missed, p99)
	}
	if len(missed) == 0 {
		t.Logf("no round had 2 CPUs to itself: lateness not judged, only that every request failed with context.DeadlineExceeded")
		return
	}
	t.Fatalf("lateness p99 over 1ms in each of %d judged rounds: %v", len(missed), missed)
}

// deadlineRound is one round of TestServeDeadlineNeedsNoSpareP: two
// clients, 100 doomed requests each. It fails the test unless every
// request fails with context.DeadlineExceeded, and returns how late
// each Wait returned after its deadline.
func deadlineRound(t *testing.T, s *Server) []time.Duration {
	t.Helper()
	const clients, reqs = 2, 100
	job := Rec(stress.Job(14, 256, 1))
	late := make([][]time.Duration, clients)
	var completed atomic.Int64
	var wg sync.WaitGroup
	for c := range late {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				dl, _ := ctx.Deadline()
				tk, err := s.Submit(ctx, "", job)
				if err != nil {
					cancel()
					t.Error(err)
					return
				}
				_, werr := tk.Wait()
				late[c] = append(late[c], time.Since(dl))
				cancel()
				if !errors.Is(werr, context.DeadlineExceeded) {
					completed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := completed.Load(); n != 0 || t.Failed() {
		t.Fatalf("%d of %d requests did not fail with context.DeadlineExceeded", n, clients*reqs)
	}
	return slices.Concat(late...)
}

// processCPU is the user and system CPU time the process has used.
func processCPU(t testing.TB) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
