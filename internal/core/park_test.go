package core

import (
	"runtime"
	"testing"
	"time"
)

// parkTestOpts builds options that park quickly: a tiny MaxIdleSleep
// shrinks both the back-off ladder's sleeps and the derived parkAfter
// budget (parkAfterFactor * MaxIdleSleep).
func parkTestOpts(workers int) Options {
	return Options{Workers: workers, MaxIdleSleep: 50 * time.Microsecond}
}

// waitParked polls until at least n workers are parked or the deadline
// expires, returning the final count.
func waitParked(p *Pool, n int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		if got := p.ParkedWorkers(); got >= n || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParkingQuiescent: all thieves of an idle pool park, and a
// subsequent Run wakes them and still computes the right answer.
func TestParkingQuiescent(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(parkTestOpts(4))
	defer p.Close()
	fib := fibDef()

	// Warm up once so workers have been through the steal loop.
	if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 16) }); got != serialFib(16) {
		t.Fatalf("warmup: wrong result %d", got)
	}
	if got := waitParked(p, 3, 5*time.Second); got != 3 {
		t.Fatalf("only %d/3 workers parked after quiescence", got)
	}
	st := p.Stats()
	if st.Parks < 3 {
		t.Errorf("Parks = %d, want >= 3", st.Parks)
	}

	// The next Run's first public spawn must wake a parked worker.
	if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 18) }); got != serialFib(18) {
		t.Fatalf("post-park run: wrong result %d", got)
	}
	st = p.Stats()
	if st.Wakes == 0 {
		t.Errorf("Run against a fully parked pool recorded no wakes")
	}
	t.Logf("parks=%d wakes=%d", st.Parks, st.Wakes)
}

// TestParkingRepeatedCycles stresses the park/wake handshake across
// many quiesce→run transitions; a lost wake-up would deadlock a Run.
func TestParkingRepeatedCycles(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(parkTestOpts(4))
	defer p.Close()
	fib := fibDef()
	cycles := 15
	if testing.Short() {
		cycles = 4
	}
	for i := 0; i < cycles; i++ {
		if got := waitParked(p, 1, 5*time.Second); got < 1 {
			t.Fatalf("cycle %d: no worker parked", i)
		}
		if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 15) }); got != serialFib(15) {
			t.Fatalf("cycle %d: wrong result %d", i, got)
		}
	}
	st := p.Stats()
	if st.Parks == 0 || st.Wakes == 0 {
		t.Errorf("cycles ran but parks=%d wakes=%d", st.Parks, st.Wakes)
	}
}

// TestParkingOff: in spin mode (a negative MaxIdleSleep) no idle
// engine exists and no worker ever parks.
func TestParkingOff(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"spin-mode", Options{Workers: 2, MaxIdleSleep: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(tc.opts)
			defer p.Close()
			if p.idle != nil {
				t.Fatalf("idle engine created with parking off")
			}
			time.Sleep(20 * time.Millisecond)
			if got := p.ParkedWorkers(); got != 0 {
				t.Errorf("ParkedWorkers = %d with parking off", got)
			}
			if st := p.Stats(); st.Parks != 0 || st.Wakes != 0 {
				t.Errorf("parks=%d wakes=%d with parking off", st.Parks, st.Wakes)
			}
		})
	}
}

// TestParkingSingleWorker: a one-worker pool has no thieves and must
// not allocate an idle engine.
func TestParkingSingleWorker(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	if p.idle != nil {
		t.Fatalf("idle engine created for a single-worker pool")
	}
}

// TestCloseWakesParked: Close must release parked workers (the test
// hangs on a lost shutdown wake).
func TestCloseWakesParked(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(parkTestOpts(4))
	if got := waitParked(p, 3, 5*time.Second); got < 1 {
		t.Fatalf("no worker parked before Close (got %d)", got)
	}
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with workers parked")
	}
}

// TestParkBudgetIsElapsedTime: the park budget (16 × MaxIdleSleep,
// 3.2 ms at the defaults) is charged what each nap took. Charged the
// nominal 1, 2, 3, … µs it took ≈ 80 naps of a millisecond each, and the
// thief of a 2-worker pool was still napping 80 ms after a Run. The
// bound leaves a loaded test machine 8× the budget; one try in three
// has to meet it.
func TestParkBudgetIsElapsedTime(t *testing.T) {
	const bound = 25 * time.Millisecond
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	fib := fibDef()
	var took time.Duration
	for try := 0; try < 3; try++ {
		if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 16) }); got != serialFib(16) {
			t.Fatalf("wrong result %d", got)
		}
		t0 := time.Now()
		for p.ParkedWorkers() == 0 && time.Since(t0) < 5*time.Second {
			time.Sleep(200 * time.Microsecond)
		}
		if took = time.Since(t0); took < bound {
			t.Logf("thief parked %v after the Run", took)
			return
		}
	}
	t.Errorf("thief parked %v after the Run, want under %v", took, bound)
}
