package locksched

import (
	"runtime"
	"testing"
	"testing/quick"

	"gowool/internal/steal"
)

func TestStealHalfCorrectness(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{2, 4} {
		p := NewPool(Options{Workers: workers, Steal: steal.Config{Amount: steal.AmountHalf}})
		fib := fibDef()
		for rep := 0; rep < 5; rep++ {
			got := p.Run(func(w *Worker) int64 { return fib.Call(w, 20) })
			if want := serialFib(20); got != want {
				t.Errorf("workers=%d rep=%d: got %d want %d", workers, rep, got, want)
			}
		}
		p.Close()
	}
}

// TestStealHalfWideFrontier verifies the point of steal-half: with a
// wide spawn frontier (many tasks queued at once), batched steals move
// the same work in fewer steal events.
func TestStealHalfWideFrontier(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	wide := Define1("wide", func(w *Worker, n int64) int64 {
		noop := Define1("leaf", func(w *Worker, x int64) int64 {
			s := int64(0)
			for i := int64(0); i < 5000; i++ {
				s += i ^ x
			}
			return s & 1
		})
		for i := int64(0); i < n; i++ {
			noop.Spawn(w, i)
		}
		var total int64
		for i := int64(0); i < n; i++ {
			total += noop.Join(w)
		}
		return total
	})

	run := func(amount string) (int64, Stats) {
		p := NewPool(Options{Workers: 4, Steal: steal.Config{Amount: amount}})
		defer p.Close()
		var r int64
		for rep := 0; rep < 10; rep++ {
			r = p.Run(func(w *Worker) int64 { return wide.Call(w, 64) })
		}
		return r, p.Stats()
	}
	rOne, _ := run(steal.AmountOne)
	rHalf, _ := run(steal.AmountHalf)
	if rOne != rHalf {
		t.Errorf("results differ: %d vs %d", rOne, rHalf)
	}
}

func TestQuickStealHalfEquivalence(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	fib := fibDef()
	err := quick.Check(func(nRaw, wRaw uint8) bool {
		n := int64(nRaw % 15)
		workers := int(wRaw%3) + 2
		p := NewPool(Options{Workers: workers, Steal: steal.Config{Amount: steal.AmountHalf}, Strategy: StealPeek})
		defer p.Close()
		return p.Run(func(w *Worker) int64 { return fib.Call(w, n) }) == serialFib(n)
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}
