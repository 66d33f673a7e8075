package core

import (
	"sync"
	"sync/atomic"
	"time"

	"gowool/internal/trace"
)

// idleEngine parks fully idle workers so a quiescent pool consumes ~0%
// CPU instead of sleep-polling forever, while keeping the producer fast
// paths almost free: publishing work costs a single atomic load of
// parked (the "any parked?" check) in the common nobody-parked case,
// and a targeted wake of the most recently parked worker otherwise.
//
// The protocol is an eventcount specialised to this scheduler:
//
//	parker:   announce (push self, publish parked count)
//	          → re-check every victim for visible work and shutdown
//	          → block on its private semaphore
//	producer: make work visible (the task-state / publicLimit store)
//	          → load parked; if nonzero, pop a waiter and signal it
//
// Both sides' atomics are sequentially consistent (sync/atomic), so
// either the producer observes the announce and wakes, or the parker's
// re-check observes the published work and cancels — a lost wake-up
// would require the announce to order after the producer's load AND
// the work store to order after the parker's re-check, which no
// interleaving of the total order allows.
//
// Wake sources: spawn (first public descriptor past an empty region),
// publishMore (trip-wire answer), the trip wire itself (anticipatory),
// steal success (wake propagation: a thief going busy hands the scan to
// a parked peer), and Close (wakeAll).
type idleEngine struct {
	// parkAfter is the cumulative back-off sleep an idle worker pays
	// before parking (derived from Options.MaxIdleSleep), bounding the
	// extra steal latency parking can add to a waking pool.
	parkAfter time.Duration

	// parked mirrors len(stack); it is the producers' cheap gate and
	// is only ever written under mu.
	parked atomic.Int32

	mu    sync.Mutex
	stack []int // parked worker indices, most recent last

	// sem holds one buffered channel per worker. A token is sent only
	// by a waker that has already popped the worker from stack, so at
	// most one token is ever outstanding per worker.
	sem []chan struct{}
}

func newIdleEngine(workers int, parkAfter time.Duration) *idleEngine {
	e := &idleEngine{
		parkAfter: parkAfter,
		stack:     make([]int, 0, workers),
		sem:       make([]chan struct{}, workers),
	}
	for i := range e.sem {
		e.sem[i] = make(chan struct{}, 1)
	}
	return e
}

// park blocks w until a producer wakes it. It returns immediately
// (without blocking) when the re-check finds visible work or a
// shutdown, so parking can never strand a worker while tasks exist.
func (e *idleEngine) park(w *Worker) {
	e.mu.Lock()
	e.stack = append(e.stack, w.idx)
	e.parked.Store(int32(len(e.stack)))
	e.mu.Unlock()
	w.parks.Add(1)
	if w.trc != nil {
		w.trc.Record(trace.KindPark, 0, 0)
	}

	// Re-check after the announce: any work published before the
	// announce was visible to a producer that may have seen parked==0.
	if w.pool.life.Closed() || w.anyVisibleWork() {
		if e.cancel(w.idx) {
			return
		}
		// A waker popped us concurrently; its token is in flight.
	}
	<-e.sem[w.idx]
}

// cancel removes idx from the parked stack, reporting false when a
// waker already claimed it (in which case a semaphore token is or will
// shortly be available).
func (e *idleEngine) cancel(idx int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, v := range e.stack {
		if v == idx {
			e.stack = append(e.stack[:i], e.stack[i+1:]...)
			e.parked.Store(int32(len(e.stack)))
			return true
		}
	}
	return false
}

// wakeOne pops the most recently parked worker (warmest caches) and
// signals it, crediting the wake to by. No-op when nothing is parked;
// callers pre-check parked to keep the fast path lock-free, this
// re-check under the lock makes the pop race-free.
func (e *idleEngine) wakeOne(by *Worker) {
	e.mu.Lock()
	n := len(e.stack)
	if n == 0 {
		e.mu.Unlock()
		return
	}
	idx := e.stack[n-1]
	e.stack = e.stack[:n-1]
	e.parked.Store(int32(n - 1))
	e.mu.Unlock()
	by.wakes.Add(1)
	if by.trc != nil {
		by.trc.Record(trace.KindWake, int64(idx), 0)
	}
	e.sem[idx] <- struct{}{}
}

// wakeAll releases every parked worker; used by Close after the
// shutdown flag is set (a worker that parks after this drain re-checks
// shutdown post-announce and cancels itself).
func (e *idleEngine) wakeAll() {
	e.mu.Lock()
	idxs := append([]int(nil), e.stack...)
	e.stack = e.stack[:0]
	e.parked.Store(0)
	e.mu.Unlock()
	for _, idx := range idxs {
		e.sem[idx] <- struct{}{}
	}
}
