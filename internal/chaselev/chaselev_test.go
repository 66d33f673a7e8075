package chaselev

import (
	"runtime"
	"testing"
	"testing/quick"

	"gowool/internal/chaos"
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

func TestFibAllWaitPolicies(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, wp := range []WaitPolicy{WaitSteal, WaitLeapfrog, WaitSpin} {
		for _, workers := range []int{1, 2, 4} {
			p := NewPool(Options{Workers: workers, Wait: wp})
			got := p.Run(func(w *Worker) int64 { return fibDef().Call(w, 20) })
			if want := serialFib(20); got != want {
				t.Errorf("%v workers=%d: got %d want %d", wp, workers, got, want)
			}
			p.Close()
		}
	}
}

func TestWaitPolicyNames(t *testing.T) {
	for p, want := range map[WaitPolicy]string{
		WaitSteal:    "steal-any",
		WaitLeapfrog: "leapfrog",
		WaitSpin:     "spin",
	} {
		if got := p.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestFreeListReuse(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	p.Run(func(w *Worker) int64 {
		for i := int64(0); i < 1000; i++ {
			noop.Spawn(w, i)
			if got := noop.Join(w); got != i {
				t.Fatalf("join %d returned %d", i, got)
			}
		}
		return 0
	})
	st := p.Stats()
	// The free list means only the first iteration's task structure
	// comes from the heap.
	if st.Allocs > 4 {
		t.Errorf("heap allocs = %d, want <= 4 (free list not reusing)", st.Allocs)
	}
	if st.Spawns != 1000 {
		t.Errorf("spawns = %d, want 1000", st.Spawns)
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
	if st.JoinsStolen > st.Steals {
		t.Errorf("stolen joins (%d) > steals (%d)", st.JoinsStolen, st.Steals)
	}
}

// TestOverflowDegradesToInline: a DequeSize-4 pool completes a deep
// spawn tree correctly, with spawns past capacity elided to inline
// execution and counted in OverflowInlined.
func TestOverflowDegradesToInline(t *testing.T) {
	leaf := Define1("leaf", func(w *Worker, x int64) int64 { return x })
	var deep *TaskDef1
	deep = Define1("deep", func(w *Worker, d int64) int64 {
		if d == 0 {
			return 0
		}
		leaf.Spawn(w, d)
		sub := deep.Call(w, d-1)
		return sub + leaf.Join(w)
	})
	const depth = 1000
	const want = depth * (depth + 1) / 2
	for _, workers := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(4)
		p := NewPool(Options{Workers: workers, DequeSize: 4})
		got := p.Run(func(w *Worker) int64 { return deep.Call(w, depth) })
		st := p.Stats()
		p.Close()
		runtime.GOMAXPROCS(prev)
		if got != want {
			t.Fatalf("workers=%d: depth-%d spawn tree = %d, want %d", workers, depth, got, want)
		}
		if st.OverflowInlined == 0 {
			t.Fatalf("workers=%d: OverflowInlined = 0 on a depth-%d tree with DequeSize 4", workers, depth)
		}
		if st.Spawns != st.JoinsInlinedPublic+st.JoinsStolen {
			t.Fatalf("workers=%d: spawns (%d) != joins (%d+%d) with elision active",
				workers, st.Spawns, st.JoinsInlinedPublic, st.JoinsStolen)
		}
	}
}

// TestChaosOverheadDisabled pins the zero-cost claim for the disabled
// chaos path on this backend: no agents, no allocations on spawn/join.
func TestChaosOverheadDisabled(t *testing.T) {
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	for i, w := range p.workers {
		if w.chs != nil {
			t.Fatalf("worker %d has a chaos agent on an uninjected pool", i)
		}
	}
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	p.Run(func(w *Worker) int64 {
		if avg := testing.AllocsPerRun(200, func() {
			noop.Spawn(w, 1)
			noop.Join(w)
		}); avg != 0 {
			t.Errorf("spawn/join pair allocates %v objects with chaos disabled, want 0", avg)
		}
		return 0
	})
}

// TestChaosFibAllProfiles: serial agreement for fib under every chaos
// profile and every wait policy, seed in the failure output for replay.
func TestChaosFibAllProfiles(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	fib := fibDef()
	want := serialFib(18)
	for _, prof := range chaos.Profiles() {
		for _, wp := range []WaitPolicy{WaitSteal, WaitLeapfrog} {
			const seed = 12345
			in := chaos.NewInjector(4, prof, seed)
			p := NewPool(Options{Workers: 4, Wait: wp, Chaos: in})
			got := p.Run(func(w *Worker) int64 { return fib.Call(w, 18) })
			p.Close()
			if got != want {
				t.Fatalf("profile %s seed %d wait=%v: fib(18) = %d, want %d (replay with this seed)",
					prof.Name, seed, wp, got, want)
			}
			total := uint64(0)
			for _, c := range in.Counts() {
				total += c
			}
			if total == 0 {
				t.Fatalf("profile %s seed %d: no chaos points visited", prof.Name, seed)
			}
		}
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

func TestContextTask(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	type acc struct{ v []int64 }
	var fill *TaskDefC3[acc]
	fill = DefineC3("fill", func(w *Worker, a *acc, lo, hi, k int64) int64 {
		if hi-lo <= 4 {
			for i := lo; i < hi; i++ {
				a.v[i] = i * k
			}
			return hi - lo
		}
		mid := (lo + hi) / 2
		fill.Spawn(w, a, lo, mid, k)
		r := fill.Call(w, a, mid, hi, k)
		l := fill.Join(w)
		return l + r
	})
	a := &acc{v: make([]int64, 300)}
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	if got := p.Run(func(w *Worker) int64 { return fill.Call(w, a, 0, 300, 7) }); got != 300 {
		t.Fatalf("count = %d, want 300", got)
	}
	for i, v := range a.v {
		if v != int64(i*7) {
			t.Fatalf("v[%d] = %d, want %d", i, v, i*7)
		}
	}
}

func TestQuickEquivalence(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	fib := fibDef()
	err := quick.Check(func(nRaw, wRaw, pRaw uint8) bool {
		n := int64(nRaw % 16)
		workers := int(wRaw%4) + 1
		wp := WaitPolicy(pRaw % 3)
		p := NewPool(Options{Workers: workers, Wait: wp})
		defer p.Close()
		got := p.Run(func(w *Worker) int64 { return fib.Call(w, n) })
		return got == serialFib(n)
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkSpawnJoinDeque(b *testing.B) {
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
// before allocating per-worker deques.
func TestWorkersBoundRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool accepted Workers beyond the int32 stolenBy encoding")
		}
	}()
	NewPool(Options{Workers: 1 << 31})
}
