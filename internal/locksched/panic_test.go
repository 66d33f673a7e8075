package locksched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gowool/internal/steal"
)

// TestStealHalfPanicCompletesConvoy: with steal-half a thief claims a
// batch of tasks in one critical section; a panic in an early task of
// the batch must not strand the ones convoying behind it (their done
// flags must still publish, or their joins deadlock).
func TestStealHalfPanicCompletesConvoy(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	var ran atomic.Int64
	for attempt := 0; attempt < 30; attempt++ {
		p := NewPool(Options{Workers: 2, Steal: steal.Config{Amount: steal.AmountHalf}, MaxIdleSleep: -1})
		var armed, started atomic.Bool
		bomb := Define1("bomb", func(w *Worker, x int64) int64 {
			started.Store(true)
			for !armed.Load() {
				runtime.Gosched()
			}
			if x == 0 {
				panic("first of batch")
			}
			ran.Add(1)
			return x
		})
		var stolen bool
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("panic did not propagate from Run")
				}
			}()
			p.Run(func(w *Worker) int64 {
				// Four queued tasks; a steal-half thief claims the oldest
				// two (x=0 panics, x=1 convoys behind it).
				for x := int64(0); x < 4; x++ {
					bomb.Spawn(w, x)
				}
				deadline := time.Now().Add(5 * time.Millisecond)
				for !started.Load() && time.Now().Before(deadline) {
					runtime.Gosched()
				}
				stolen = started.Load()
				armed.Store(true)
				var sum int64
				for x := 0; x < 4; x++ {
					sum += bomb.Join(w)
				}
				return sum
			})
		}()
		p.Close()
		if stolen {
			return // joins all resolved despite the mid-batch panic
		}
	}
	t.Log("batch was never stolen in 30 attempts; inline path exercised instead")
}
