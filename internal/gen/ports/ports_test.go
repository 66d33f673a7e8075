package ports

import (
	"runtime"
	"sync/atomic"
	"testing"

	"gowool/internal/core"
)

func serialRec(c *RecCtx, n int64) int64 {
	if v, ok := c.Leaf(n); ok {
		return v
	}
	first, second := c.Split(n)
	return serialRec(c, first) + serialRec(c, second)
}

func fibCtx() *RecCtx {
	return &RecCtx{
		Leaf: func(n int64) (int64, bool) {
			if n < 2 {
				return n, true
			}
			return 0, false
		},
		Split: func(n int64) (int64, int64) { return n - 1, n - 2 },
	}
}

// TestRecSerialAgreement runs the generated divide-and-conquer port on
// a steal-heavy multi-worker pool and checks the result against a
// plain serial recursion over the same context.
func TestRecSerialAgreement(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := core.NewPool(core.Options{Workers: 4, PrivateTasks: true,
		InitialPublic: 1, PublishAmount: 1})
	defer p.Close()
	c := fibCtx()
	want := serialRec(c, 25)
	for rep := 0; rep < 5; rep++ {
		if got := p.Run(func(w *core.Worker) int64 { return CallRec(w, c, 25) }); got != want {
			t.Fatalf("rep %d: CallRec(25) = %d, want %d", rep, got, want)
		}
	}
}

// TestRecExactlyOnceLeaves counts leaf executions with an atomic: a
// lost or doubly-executed descriptor anywhere in the generated
// spawn/join/steal plumbing shows up as a miscount.
func TestRecExactlyOnceLeaves(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := core.NewPool(core.Options{Workers: 4, PrivateTasks: true,
		InitialPublic: 1, PublishAmount: 1})
	defer p.Close()
	var leaves atomic.Int64
	c := &RecCtx{
		Leaf: func(n int64) (int64, bool) {
			if n < 2 {
				leaves.Add(1)
				return n, true
			}
			return 0, false
		},
		Split: func(n int64) (int64, int64) { return n - 1, n - 2 },
	}
	wantLeaves := int64(0)
	var count func(n int64)
	count = func(n int64) {
		if n < 2 {
			wantLeaves++
			return
		}
		count(n - 1)
		count(n - 2)
	}
	count(22)
	for rep := 0; rep < 5; rep++ {
		leaves.Store(0)
		p.Run(func(w *core.Worker) int64 { return CallRec(w, c, 22) })
		if got := leaves.Load(); got != wantLeaves {
			t.Fatalf("rep %d: %d leaf executions, want %d", rep, got, wantLeaves)
		}
	}
}

// TestRangeSerialAgreement checks the generated range splitter against
// a plain loop reduction.
func TestRangeSerialAgreement(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := core.NewPool(core.Options{Workers: 4, PrivateTasks: true,
		InitialPublic: 1, PublishAmount: 1})
	defer p.Close()
	c := &RangeCtx{Leaf: func(i int64) int64 { return i * i }}
	const n = 10_000
	var want int64
	for i := int64(0); i < n; i++ {
		want += i * i
	}
	if got := p.Run(func(w *core.Worker) int64 { return CallRange(w, c, 0, n) }); got != want {
		t.Fatalf("CallRange(0, %d) = %d, want %d", n, got, want)
	}
	if got := p.Run(func(w *core.Worker) int64 { return CallRange(w, c, 5, 5) }); got != 0 {
		t.Fatalf("CallRange on an empty range = %d, want 0", got)
	}
}

// TestRunRegions pins the two entry points the registry's woolgen
// backend and the serving layer share: reps serialized regions in one
// Run, fewer than one counting as one, and no allocation — the context
// is built once, whoever runs it however often.
func TestRunRegions(t *testing.T) {
	p := core.NewPool(core.Options{Workers: 1, PrivateTasks: true})
	defer p.Close()
	rec := fibCtx()
	span := &RangeCtx{Leaf: func(i int64) int64 { return i }}
	for _, reps := range []int64{-1, 0, 1, 3} {
		regions := max(reps, 1)
		if got, want := RunRec(p, rec, 12, reps), regions*serialRec(rec, 12); got != want {
			t.Errorf("RunRec(fib 12, reps %d) = %d, want %d", reps, got, want)
		}
		if got, want := RunRange(p, span, 100, reps), regions*4950; got != want {
			t.Errorf("RunRange(sum 0..99, reps %d) = %d, want %d", reps, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { RunRec(p, rec, 4, 1); RunRange(p, span, 8, 1) }); allocs != 0 {
		t.Errorf("a RunRec and a RunRange allocate %v times, want 0", allocs)
	}
}

// TestBatchCorrectness: SpawnNoopN/JoinNoopN over a window larger than
// the task stack's private headroom must join every argument exactly
// once (the sum identifies the set).
func TestBatchCorrectness(t *testing.T) {
	p := core.NewPool(core.Options{Workers: 1, PrivateTasks: true, InitialPublic: 2})
	defer p.Close()
	for _, n := range []int{0, 1, 7, 64} {
		base := int64(5)
		want := int64(0)
		for j := 0; j < n; j++ {
			want += base + int64(j)
		}
		got := p.Run(func(w *core.Worker) int64 {
			SpawnNoopN(w, base, n)
			return JoinNoopN(w, n)
		})
		if got != want {
			t.Fatalf("SpawnNoopN/JoinNoopN(base=%d, n=%d) = %d, want %d", base, n, got, want)
		}
	}
}

// atPrivateDepth runs f with depth outstanding noop tasks already
// spawned, so the slots f touches are past the public prefix and the
// private fast path is live (slots 0..InitialPublic-1 are public).
func atPrivateDepth(w *core.Worker, depth int, f func()) {
	for i := 0; i < depth; i++ {
		SpawnNoop(w, int64(i))
	}
	f()
	for i := 0; i < depth; i++ {
		JoinNoop(w)
	}
}

// TestPrivateSpawnJoinAllocs pins the headline acceptance property:
// the generated private spawn/join path and the batch path perform
// zero heap allocations per task.
func TestPrivateSpawnJoinAllocs(t *testing.T) {
	p := core.NewPool(core.Options{Workers: 1, PrivateTasks: true, InitialPublic: 2})
	defer p.Close()
	p.Run(func(w *core.Worker) int64 {
		atPrivateDepth(w, 4, func() {
			if avg := testing.AllocsPerRun(200, func() {
				SpawnNoop(w, 1)
				JoinNoop(w)
			}); avg != 0 {
				t.Errorf("private SpawnNoop/JoinNoop allocates %v objects per pair, want 0", avg)
			}
			if avg := testing.AllocsPerRun(200, func() {
				SpawnNoopN(w, 0, 16)
				JoinNoopN(w, 16)
			}); avg != 0 {
				t.Errorf("SpawnNoopN/JoinNoopN(16) allocates %v objects per window, want 0", avg)
			}
		})
		return 0
	})
}

// TestPanicInStolenGeneratedTask: a panic raised inside a stolen
// generated task must propagate out of the victim's Run and poison the
// pool, exactly as on the generic path (DESIGN.md §11).
func TestPanicInStolenGeneratedTask(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := core.NewPool(core.Options{Workers: 4, PrivateTasks: true,
		InitialPublic: 1, PublishAmount: 1})
	defer p.Close()
	c := &RecCtx{
		Leaf: func(n int64) (int64, bool) {
			if n == 0 {
				panic("generated boom")
			}
			if n < 2 {
				return n, true
			}
			return 0, false
		},
		Split: func(n int64) (int64, int64) { return n - 1, n - 2 },
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic in a generated task did not propagate out of Run")
		}
		if s, ok := r.(string); !ok || s != "generated boom" {
			t.Fatalf("Run re-raised %v, want the original value", r)
		}
	}()
	p.Run(func(w *core.Worker) int64 { return CallRec(w, c, 22) })
}
