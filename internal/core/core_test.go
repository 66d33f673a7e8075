package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func serialFib(n int64) int64 {
	if n < 2 {
		return n
	}
	return serialFib(n-1) + serialFib(n-2)
}

// fibDef builds the canonical Wool fib (paper Figure 2).
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

func TestTaskSize(t *testing.T) {
	size := reflect.TypeOf(Task{}).Size()
	if size != 128 {
		t.Fatalf("Task descriptor is %d bytes, want 128 (adjust the pad)", size)
	}
}

func TestFibSingleWorker(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	fib := fibDef()
	for n := int64(0); n <= 20; n++ {
		got := p.Run(func(w *Worker) int64 { return fib.Call(w, n) })
		if want := serialFib(n); got != want {
			t.Errorf("fib(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFibMultiWorker(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{2, 3, 4, 8} {
		p := NewPool(Options{Workers: workers})
		fib := fibDef()
		got := p.Run(func(w *Worker) int64 { return fib.Call(w, 22) })
		if want := serialFib(22); got != want {
			t.Errorf("workers=%d: fib(22) = %d, want %d", workers, got, want)
		}
		p.Close()
	}
}

func TestFibMultiWorkerPrivateTasks(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{2, 4, 7} {
		p := NewPool(Options{Workers: workers, PrivateTasks: true})
		fib := fibDef()
		for rep := 0; rep < 3; rep++ {
			got := p.Run(func(w *Worker) int64 { return fib.Call(w, 21) })
			if want := serialFib(21); got != want {
				t.Errorf("workers=%d rep=%d: fib(21) = %d, want %d", workers, rep, got, want)
			}
		}
		st := p.Stats()
		if st.Spawns == 0 {
			t.Errorf("workers=%d: no spawns recorded", workers)
		}
		p.Close()
	}
}

func TestRepeatedRuns(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	fib := fibDef()
	for i := 0; i < 50; i++ {
		got := p.Run(func(w *Worker) int64 { return fib.Call(w, 15) })
		if want := serialFib(15); got != want {
			t.Fatalf("iteration %d: got %d want %d", i, got, want)
		}
	}
}

// TestStatsAccounting checks the fundamental conservation laws of the
// scheduler counters: every spawn is joined exactly once, and every
// stolen join corresponds to a steal.
func TestStatsAccounting(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4})
	defer p.Close()
	fib := fibDef()
	p.Run(func(w *Worker) int64 { return fib.Call(w, 23) })
	st := p.Stats()

	if st.Spawns != st.Joins() {
		t.Errorf("spawns (%d) != joins (%d)", st.Spawns, st.Joins())
	}
	if st.JoinsStolen != st.Steals {
		t.Errorf("stolen joins (%d) != steals (%d)", st.JoinsStolen, st.Steals)
	}
	wantSpawns := int64(0)
	var count func(n int64) int64
	count = func(n int64) int64 {
		if n < 2 {
			return 0
		}
		return 1 + count(n-1) + count(n-2)
	}
	wantSpawns = count(23)
	if st.Spawns != wantSpawns {
		t.Errorf("spawns = %d, want %d", st.Spawns, wantSpawns)
	}
}

// TestBackoffsRare verifies the paper's observation that back-offs are
// infrequent ("always below 1% of successful steals") — we allow a
// laxer 10% on this adversarial single-core host, mainly checking that
// the ABA guard does not fire constantly.
func TestBackoffsRare(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4})
	defer p.Close()
	fib := fibDef()
	for i := 0; i < 5; i++ {
		p.Run(func(w *Worker) int64 { return fib.Call(w, 22) })
	}
	st := p.Stats()
	if st.Steals > 100 && st.Backoffs > st.Steals/10 {
		t.Errorf("backoffs (%d) exceed 10%% of steals (%d)", st.Backoffs, st.Steals)
	}
}

func TestDepthAndStackDiscipline(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	p.Run(func(w *Worker) int64 {
		if d := w.Depth(); d != 0 {
			t.Errorf("initial depth = %d, want 0", d)
		}
		for i := int64(0); i < 10; i++ {
			noop.Spawn(w, i)
		}
		if d := w.Depth(); d != 10 {
			t.Errorf("depth after 10 spawns = %d, want 10", d)
		}
		var sum int64
		for i := 0; i < 10; i++ {
			sum += noop.Join(w)
		}
		if d := w.Depth(); d != 0 {
			t.Errorf("depth after joins = %d, want 0", d)
		}
		return sum
	})
}

func TestJoinLIFOOrder(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	id := Define1("id", func(w *Worker, x int64) int64 { return x })
	p.Run(func(w *Worker) int64 {
		id.Spawn(w, 1)
		id.Spawn(w, 2)
		id.Spawn(w, 3)
		if got := id.Join(w); got != 3 {
			t.Errorf("first join = %d, want 3 (LIFO)", got)
		}
		if got := id.Join(w); got != 2 {
			t.Errorf("second join = %d, want 2", got)
		}
		if got := id.Join(w); got != 1 {
			t.Errorf("third join = %d, want 1", got)
		}
		return 0
	})
}

func TestAllTaskDefArities(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	d1 := Define1("a1", func(w *Worker, a int64) int64 { return a * 2 })
	d2 := Define2("a2", func(w *Worker, a, b int64) int64 { return a + b })
	d3 := Define3("a3", func(w *Worker, a, b, c int64) int64 { return a + b*c })
	d4 := Define4("a4", func(w *Worker, a, b, c, d int64) int64 { return a + b + c + d })
	p.Run(func(w *Worker) int64 {
		d1.Spawn(w, 21)
		if got := d1.Join(w); got != 42 {
			t.Errorf("d1 = %d, want 42", got)
		}
		d2.Spawn(w, 40, 2)
		if got := d2.Join(w); got != 42 {
			t.Errorf("d2 = %d, want 42", got)
		}
		d3.Spawn(w, 2, 8, 5)
		if got := d3.Join(w); got != 42 {
			t.Errorf("d3 = %d, want 42", got)
		}
		d4.Spawn(w, 10, 10, 10, 12)
		if got := d4.Join(w); got != 42 {
			t.Errorf("d4 = %d, want 42", got)
		}
		if got := d1.Call(w, 5); got != 10 {
			t.Errorf("d1.Call = %d, want 10", got)
		}
		return 0
	})
}

func TestContextTasks(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	type vecs struct{ a, b, out []int64 }
	var addRange *TaskDefC2[vecs]
	addRange = DefineC2("addRange", func(w *Worker, v *vecs, lo, hi int64) int64 {
		if hi-lo <= 4 {
			for i := lo; i < hi; i++ {
				v.out[i] = v.a[i] + v.b[i]
			}
			return 0
		}
		mid := (lo + hi) / 2
		addRange.Spawn(w, v, lo, mid)
		addRange.Call(w, v, mid, hi)
		addRange.Join(w)
		return 0
	})

	const n = 1000
	v := &vecs{a: make([]int64, n), b: make([]int64, n), out: make([]int64, n)}
	for i := range v.a {
		v.a[i] = int64(i)
		v.b[i] = int64(2 * i)
	}
	p := NewPool(Options{Workers: 3})
	defer p.Close()
	p.Run(func(w *Worker) int64 { return addRange.Call(w, v, 0, n) })
	for i := range v.out {
		if v.out[i] != int64(3*i) {
			t.Fatalf("out[%d] = %d, want %d", i, v.out[i], 3*i)
		}
	}
}

func TestJoinAny(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	sq := Define1("sq", func(w *Worker, x int64) int64 { return x * x })
	p.Run(func(w *Worker) int64 {
		sq.Spawn(w, 7)
		if got := w.JoinAny(); got != 49 {
			t.Errorf("JoinAny = %d, want 49", got)
		}
		return 0
	})
}

func TestStackOverflowPanics(t *testing.T) {
	p := NewPool(Options{Workers: 1, StackSize: 8, StrictOverflow: true})
	defer p.Close()
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on task stack overflow with StrictOverflow")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "task pool overflow") {
			t.Fatalf("unexpected overflow panic: %v", r)
		}
	}()
	p.Run(func(w *Worker) int64 {
		for i := int64(0); i < 100; i++ {
			noop.Spawn(w, i)
		}
		return 0
	})
}

func TestUnjoinedTasksPanics(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic when root leaks unjoined tasks")
		}
	}()
	p.Run(func(w *Worker) int64 {
		noop.Spawn(w, 1)
		return 0 // leaked
	})
}

func TestPanicInStolenTaskPropagates(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4})
	defer p.Close()
	var boom *TaskDef1
	boom = Define1("boom", func(w *Worker, depth int64) int64 {
		if depth == 0 {
			panic("kaboom")
		}
		boom.Spawn(w, depth-1)
		boom.Call(w, depth-1)
		boom.Join(w)
		return 0
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate from task tree")
		}
		if fmt.Sprint(r) != "kaboom" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	p.Run(func(w *Worker) int64 { return boom.Call(w, 12) })
}

func TestRunOnClosedPoolPanics(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Run after Close")
		}
	}()
	p.Run(func(w *Worker) int64 { return 0 })
}

func TestConcurrentRunPanics(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Run(func(w *Worker) int64 {
			close(started)
			<-release
			return 0
		})
	}()
	<-started
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on concurrent Run")
			}
		}()
		p.Run(func(w *Worker) int64 { return 0 })
	}()
	close(release)
	wg.Wait()
}

func TestCloseIdempotent(t *testing.T) {
	p := NewPool(Options{Workers: 2})
	p.Close()
	p.Close() // must not hang or panic
}

// TestPrivateTasksStatsSplit verifies that with private tasks enabled
// and a single worker (nothing ever stolen), the overwhelming majority
// of joins take the private no-atomics path — the paper's "all private"
// best case.
func TestPrivateTasksStatsSplit(t *testing.T) {
	p := NewPool(Options{Workers: 1, PrivateTasks: true, InitialPublic: 2})
	defer p.Close()
	fib := fibDef()
	p.Run(func(w *Worker) int64 { return fib.Call(w, 20) })
	st := p.Stats()
	if st.JoinsInlinedPrivate == 0 {
		t.Fatal("no private joins recorded with PrivateTasks enabled")
	}
	if st.JoinsStolen != 0 {
		t.Fatalf("stolen joins on single worker: %d", st.JoinsStolen)
	}
	frac := float64(st.JoinsInlinedPrivate) / float64(st.Joins())
	if frac < 0.95 {
		t.Errorf("private join fraction = %.3f, want >= 0.95 (public=%d private=%d)",
			frac, st.JoinsInlinedPublic, st.JoinsInlinedPrivate)
	}
}

// TestTripWirePublishes verifies that stealing near the public boundary
// causes the owner to publish more descriptors.
func TestTripWirePublishes(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4, PrivateTasks: true, InitialPublic: 1, PublishAmount: 2})
	defer p.Close()
	fib := fibDef()
	for i := 0; i < 5; i++ {
		p.Run(func(w *Worker) int64 { return fib.Call(w, 24) })
	}
	st := p.Stats()
	if st.Steals > 4 && st.Publications == 0 {
		t.Errorf("steals happened (%d) but no trip-wire publications", st.Steals)
	}
}

// TestQuickFibEquivalence property-tests that the scheduler computes
// the same results as serial execution for random inputs and worker
// counts.
func TestQuickFibEquivalence(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	cfg := &quick.Config{MaxCount: 30}
	fib := fibDef()
	err := quick.Check(func(nRaw uint8, wRaw uint8, private bool) bool {
		n := int64(nRaw % 18)
		workers := int(wRaw%4) + 1
		p := NewPool(Options{Workers: workers, PrivateTasks: private})
		defer p.Close()
		got := p.Run(func(w *Worker) int64 { return fib.Call(w, n) })
		return got == serialFib(n)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestQuickTreeSum property-tests random-shaped task trees: a tree
// described by a depth and a pseudo-random skew must sum identically
// under serial and scheduled execution.
func TestQuickTreeSum(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	var tree *TaskDef2
	tree = Define2("tree", func(w *Worker, depth, seed int64) int64 {
		if depth == 0 {
			return seed % 1000
		}
		s1 := seed*6364136223846793005 + 1442695040888963407
		s2 := s1*6364136223846793005 + 1442695040888963407
		// Skew: occasionally recurse deeper on one side only.
		if s1%5 == 0 {
			return tree.Call(w, depth-1, s2)
		}
		tree.Spawn(w, depth-1, s1)
		a := tree.Call(w, depth-1, s2)
		b := tree.Join(w)
		return a + b
	})

	var serialTree func(depth, seed int64) int64
	serialTree = func(depth, seed int64) int64 {
		if depth == 0 {
			return seed % 1000
		}
		s1 := seed*6364136223846793005 + 1442695040888963407
		s2 := s1*6364136223846793005 + 1442695040888963407
		if s1%5 == 0 {
			return serialTree(depth-1, s2)
		}
		return serialTree(depth-1, s2) + serialTree(depth-1, s1)
	}

	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(dRaw uint8, seed int64, wRaw uint8, private bool) bool {
		depth := int64(dRaw%9) + 1
		workers := int(wRaw%4) + 1
		p := NewPool(Options{Workers: workers, PrivateTasks: private})
		defer p.Close()
		got := p.Run(func(w *Worker) int64 { return tree.Call(w, depth, seed) })
		return got == serialTree(depth, seed)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestLeapfrogUnderBlockedJoin builds a workload where the root spawns
// a long-running task that is stolen, then joins it: the root must
// leapfrog into the thief's pool rather than deadlock.
func TestLeapfrogUnderBlockedJoin(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 2})
	defer p.Close()

	var heavy *TaskDef1
	heavy = Define1("heavy", func(w *Worker, depth int64) int64 {
		if depth == 0 {
			time.Sleep(time.Microsecond)
			return 1
		}
		heavy.Spawn(w, depth-1)
		a := heavy.Call(w, depth-1)
		b := heavy.Join(w)
		return a + b
	})

	for i := 0; i < 10; i++ {
		got := p.Run(func(w *Worker) int64 {
			heavy.Spawn(w, 8)
			// Give worker 1 a chance to steal the spawned task while
			// the root dawdles.
			time.Sleep(100 * time.Microsecond)
			return heavy.Join(w)
		})
		if got != 256 {
			t.Fatalf("iteration %d: got %d, want 256", i, got)
		}
	}
	st := p.Stats()
	if st.Steals == 0 {
		t.Log("no steals occurred; leapfrog path not exercised this run (timing-dependent)")
	}
}

// TestHighContentionStress hammers a pool with many tiny tasks and
// verifies result integrity — the closest native analogue of the
// paper's stress benchmark.
func TestHighContentionStress(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 8, PrivateTasks: true, InitialPublic: 1})
	defer p.Close()

	var tree *TaskDef1
	tree = Define1("stress", func(w *Worker, depth int64) int64 {
		if depth == 0 {
			s := int64(0)
			for i := int64(0); i < 64; i++ {
				s += i
			}
			return s / s // 1... (64*63/2)/(same) = 1
		}
		tree.Spawn(w, depth-1)
		a := tree.Call(w, depth-1)
		b := tree.Join(w)
		return a + b
	})

	reps := 200
	if testing.Short() {
		reps = 20
	}
	for i := 0; i < reps; i++ {
		got := p.Run(func(w *Worker) int64 { return tree.Call(w, 6) })
		if got != 64 {
			t.Fatalf("rep %d: got %d, want 64 leaves", i, got)
		}
	}
}

func BenchmarkSpawnJoinPublic(b *testing.B) {
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

func BenchmarkSpawnJoinPrivate(b *testing.B) {
	p := NewPool(Options{Workers: 1, PrivateTasks: true})
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

func BenchmarkFib25SingleWorker(b *testing.B) {
	p := NewPool(Options{Workers: 1, PrivateTasks: true})
	defer p.Close()
	fib := fibDef()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(func(w *Worker) int64 { return fib.Call(w, 25) })
	}
}
