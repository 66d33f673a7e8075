package locksched

import (
	"runtime"
	"testing"

	"gowool/internal/chaos"
)

// TestOverflowDegradesToInline: a StackSize-4 pool completes a deep
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
		p := NewPool(Options{Workers: workers, StackSize: 4})
		got := p.Run(func(w *Worker) int64 { return deep.Call(w, depth) })
		st := p.Stats()
		p.Close()
		runtime.GOMAXPROCS(prev)
		if got != want {
			t.Fatalf("workers=%d: depth-%d spawn tree = %d, want %d", workers, depth, got, want)
		}
		if st.OverflowInlined == 0 {
			t.Fatalf("workers=%d: OverflowInlined = 0 on a depth-%d tree with StackSize 4", workers, depth)
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
// profile, seed in the failure output.
func TestChaosFibAllProfiles(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	fib := fibDef()
	want := serialFib(18)
	for _, prof := range chaos.Profiles() {
		const seed = 12345
		in := chaos.NewInjector(4, prof, seed)
		p := NewPool(Options{Workers: 4, Chaos: in})
		got := p.Run(func(w *Worker) int64 { return fib.Call(w, 18) })
		p.Close()
		if got != want {
			t.Fatalf("profile %s seed %d: fib(18) = %d, want %d (replay with this seed)",
				prof.Name, seed, got, want)
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
