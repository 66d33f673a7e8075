package sim

import (
	"testing"

	"gowool/internal/costmodel"
)

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindDirectStack: "direct-stack",
		KindDeque:       "deque",
		KindLock:        "lock",
		KindCentral:     "central",
		Kind(99):        "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	for s, want := range map[LockStrategy]string{
		LockBase:         "base",
		LockPeek:         "peek",
		LockTryLock:      "trylock",
		LockStrategy(42): "LockStrategy(42)",
	} {
		if got := s.String(); got != want {
			t.Errorf("LockStrategy.String() = %q, want %q", got, want)
		}
	}
}

func TestCentralQueueHelping(t *testing.T) {
	// A wide frontier on the central kind: the blocked root must help
	// by executing queued tasks itself (LeapSteals counts them).
	leaf := Define1("leaf", func(w *W, _ int64) int64 {
		w.Work(500)
		return 1
	})
	wide := Define1("wide", func(w *W, n int64) int64 {
		for i := int64(0); i < n; i++ {
			leaf.Spawn(w, 0)
		}
		var total int64
		for i := int64(0); i < n; i++ {
			total += w.Join()
		}
		return total
	})
	res := Run(Config{Procs: 1, Kind: KindCentral, Costs: costmodel.OpenMP()}, call(wide, 40))
	if res.Value != 40 {
		t.Fatalf("value = %d, want 40", res.Value)
	}
	// On one processor every queued task is popped by the blocked
	// joins themselves; LIFO joins meet LIFO pops, so each pop is
	// exactly the joined task (LeapSteals stays 0 — nothing ran out
	// of order). The pops must account for every spawn.
	if res.Total.Steals != 40 {
		t.Errorf("central pops = %d, want 40", res.Total.Steals)
	}
	if res.Total.LeapSteals != 0 {
		t.Errorf("out-of-order executions = %d on one proc, want 0", res.Total.LeapSteals)
	}
}

// TestCentralPopCountedOnce: every task of a central-queue run is
// popped exactly once, by an idle thief or by a helping join, and each
// pop is one steal. fib(15) spawns 986 tasks.
func TestCentralPopCountedOnce(t *testing.T) {
	fib := simFib()
	for _, procs := range []int{1, 2, 4} {
		res := Run(Config{Procs: procs, Kind: KindCentral, Costs: costmodel.OpenMP()}, call(fib, 15))
		if res.Total.Spawns != 986 || res.Total.Steals != res.Total.Spawns {
			t.Errorf("P=%d: spawns = %d, steals = %d; want 986 each", procs, res.Total.Spawns, res.Total.Steals)
		}
	}
}

func TestCentralMultiProcContention(t *testing.T) {
	fib := simFib()
	r1 := Run(Config{Procs: 1, Kind: KindCentral, Costs: costmodel.OpenMP()}, call(fib, 15))
	r8 := Run(Config{Procs: 8, Kind: KindCentral, Costs: costmodel.OpenMP()}, call(fib, 15))
	if r1.Value != r8.Value {
		t.Fatalf("values differ")
	}
	if r8.Total.LockWaits == 0 {
		t.Error("8 procs hammering one queue produced no lock waits — contention model inert")
	}
}

func TestDequeKindUnrestrictedWait(t *testing.T) {
	// KindDeque's blocked joins steal from anyone: with several procs
	// and fine tasks it must still be exact.
	tree := simTree(256)
	for _, procs := range []int{2, 5, 8} {
		res := Run(Config{Procs: procs, Kind: KindDeque, Costs: costmodel.TBB(), Seed: 3}, call(tree, 9))
		if res.Value != 512 {
			t.Errorf("procs=%d: %d leaves, want 512", procs, res.Value)
		}
	}
}

func TestJoinWithoutSpawnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(Config{Procs: 1, Kind: KindDirectStack, Costs: costmodel.Wool()}, func(w *W) int64 { return w.Join() })
}

func TestUnjoinedRootPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var leak *TaskDef1
	leak = Define1("leak", func(w *W, _ int64) int64 {
		leak.Spawn(w, -1)
		return 0
	})
	Run(Config{Procs: 1, Kind: KindDirectStack, Costs: costmodel.Wool()}, call(leak, 1))
}

// TestStackOverflowDegrades: a workload that overflows its pool
// completes, spawns past capacity run inline with their results
// replayed LIFO by the matching joins, and the elisions are counted.
func TestStackOverflowDegrades(t *testing.T) {
	leafDef := Define1("val", func(w *W, i int64) int64 { return i })
	deep := func(w *W) int64 {
		for i := int64(0); i < 100; i++ {
			leafDef.Spawn(w, i)
		}
		var sum int64
		for i := 0; i < 100; i++ {
			sum += w.Join()
		}
		return sum
	}
	for _, kind := range []Kind{KindDirectStack, KindDeque, KindLock, KindCentral} {
		res := Run(Config{Procs: 1, Kind: kind, Costs: costmodel.Wool(), StackSize: 8}, deep)
		if want := int64(99 * 100 / 2); res.Value != want {
			t.Fatalf("kind %v: sum = %d, want %d", kind, res.Value, want)
		}
		if res.Total.OverflowInlined == 0 {
			t.Fatalf("kind %v: OverflowInlined = 0 after 100 spawns into a StackSize-8 pool", kind)
		}
		if res.Total.Spawns != res.Total.Joins() {
			t.Fatalf("kind %v: spawns (%d) != joins (%d) with elision active", kind, res.Total.Spawns, res.Total.Joins())
		}
	}
}

func TestFig6CategoriesSum(t *testing.T) {
	tree := simTree(2000)
	res := Run(Config{Procs: 4, Kind: KindDirectStack, Costs: costmodel.Wool(), Seed: 11}, call(tree, 10))
	st := res.Total
	if st.NA == 0 {
		t.Error("no NA cycles recorded")
	}
	if st.Steals > 0 && st.ST == 0 {
		t.Error("steals without ST cycles")
	}
	// Work cycles all land in NA/LA.
	if st.NA+st.LA < 1024*2000 {
		t.Errorf("application cycles %d below the workload's %d", st.NA+st.LA, 1024*2000)
	}
}
