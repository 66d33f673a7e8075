package locksched

import (
	"runtime"
	"testing"
	"testing/quick"
)

func serialFib(n int64) int64 {
	if n < 2 {
		return n
	}
	return serialFib(n-1) + serialFib(n-2)
}

func fibDef() *TaskDef1 {
	var fib *TaskDef1
	fib = Define1("fib", func(w *Worker, n int64) int64 {
		if n < 2 {
			return n
		}
		fib.Spawn(w, n-2)
		a := fib.Call(w, n-1)
		b := fib.Join(w)
		return a + b
	})
	return fib
}

// TestFibAllStrategies: fib agrees with the serial walk at every
// worker count under the one steal strategy, the paper's base.
func TestFibAllStrategies(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(Options{Workers: workers})
		got := p.Run(func(w *Worker) int64 { return fibDef().Call(w, 20) })
		if want := serialFib(20); got != want {
			t.Errorf("workers=%d: got %d want %d", workers, got, want)
		}
		p.Close()
	}
}

func TestStatsConservation(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4})
	defer p.Close()
	fib := fibDef()
	p.Run(func(w *Worker) int64 { return fib.Call(w, 21) })
	st := p.Stats()
	if st.Spawns != st.JoinsInlinedPublic+st.JoinsStolen {
		t.Errorf("spawns (%d) != joins (%d+%d)", st.Spawns, st.JoinsInlinedPublic, st.JoinsStolen)
	}
	if st.JoinsStolen != st.Steals {
		t.Errorf("stolen joins (%d) != steals (%d)", st.JoinsStolen, st.Steals)
	}
}

func TestContextTask(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	type arr struct{ v []int64 }
	var sum *TaskDefC3[arr]
	sum = DefineC3("sum", func(w *Worker, a *arr, lo, hi, k int64) int64 {
		if hi-lo <= 8 {
			var s int64
			for i := lo; i < hi; i++ {
				s += k * a.v[i]
			}
			return s
		}
		mid := (lo + hi) / 2
		sum.Spawn(w, a, lo, mid, k)
		r := sum.Call(w, a, mid, hi, k)
		l := sum.Join(w)
		return l + r
	})
	a := &arr{v: make([]int64, 500)}
	var want int64
	for i := range a.v {
		a.v[i] = int64(i)
		want += 3 * int64(i)
	}
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	if got := p.Run(func(w *Worker) int64 { return sum.Call(w, a, 0, 500, 3) }); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestQuickEquivalence(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	fib := fibDef()
	err := quick.Check(func(nRaw, wRaw uint8) bool {
		n := int64(nRaw % 16)
		workers := int(wRaw%4) + 1
		p := NewPool(Options{Workers: workers})
		defer p.Close()
		got := p.Run(func(w *Worker) int64 { return fib.Call(w, n) })
		return got == serialFib(n)
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func TestUnjoinedPanics(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unjoined tasks")
		}
	}()
	p.Run(func(w *Worker) int64 { noop.Spawn(w, 1); return 0 })
}

func BenchmarkSpawnJoinLocked(b *testing.B) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	b.ResetTimer()
	p.Run(func(w *Worker) int64 {
		for i := 0; i < b.N; i++ {
			noop.Spawn(w, 1)
			noop.Join(w)
		}
		return 0
	})
}

// TestWorkersBoundRejected: stolenBy packs thief index + 1 into an
// int32, so NewPool must reject worker counts past that encoding
// before allocating per-worker stacks.
func TestWorkersBoundRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool accepted Workers beyond the int32 stolenBy encoding")
		}
	}()
	NewPool(Options{Workers: 1 << 31})
}

// TestStealTakesOldestOne: one successful trySteal against a victim
// with several queued tasks claims and runs exactly one, the oldest,
// and the victim's join of that task returns the thief's result.
func TestStealTakesOldestOne(t *testing.T) {
	p := NewPool(Options{Workers: 2})
	p.Close() // idle loops gone: the pools are driven by hand
	victim, thief := p.workers[0], p.workers[1]
	var ran []int64
	leaf := Define1("leaf", func(w *Worker, x int64) int64 {
		ran = append(ran, x)
		return 10 + x
	})
	for x := int64(0); x < 4; x++ {
		leaf.Spawn(victim, x)
	}
	if !thief.trySteal(victim) {
		t.Fatal("trySteal failed against a full pool")
	}
	if len(ran) != 1 || ran[0] != 0 {
		t.Fatalf("one steal ran %v, want [0]", ran)
	}
	if left := victim.Depth(); left != 3 {
		t.Fatalf("victim left with %d tasks, want 3", left)
	}
	if s := thief.steals.Load(); s != 1 {
		t.Fatalf("steals counter %d, want 1", s)
	}
	var sum int64
	for x := 0; x < 4; x++ {
		sum += leaf.Join(victim)
	}
	if sum != 46 {
		t.Fatalf("joins summed to %d, want 46", sum)
	}
}
