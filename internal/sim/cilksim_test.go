package sim

import (
	"testing"

	"gowool/internal/costmodel"
)

// leafCycles is the work of one spawn-loop leaf: 16 iterations of the
// stress leaf loop at 2 cycles each.
const leafCycles = 32

// spawnLoopFrame is the paper's Section I-a example:
//
//	for (; p != NULL; p = p->next) spawn foo(p);
//	sync;
//
// as a continuation state machine for the steal-parent order.
type spawnLoopFrame struct {
	CFrame
	i, n int64
	hits *int64
}

type spawnLoopLeaf struct {
	CFrame
	hits *int64
}

func (l *spawnLoopLeaf) step0(w *W) CStep {
	w.Work(leafCycles)
	*l.hits++
	return w.Return(&l.CFrame)
}

func (f *spawnLoopFrame) loop(w *W) CStep {
	if f.i >= f.n {
		return w.Sync(&f.CFrame, f.after)
	}
	f.i++
	child := &spawnLoopLeaf{hits: f.hits}
	NewCChild(&f.CFrame, &child.CFrame)
	return w.Spawn(&f.CFrame, f.loop, child.step0)
}

func (f *spawnLoopFrame) after(w *W) CStep {
	return w.Return(&f.CFrame)
}

// TestCilkSimConstantSpaceSpawnLoop is the paper's Section I-a space
// property, on the simulator, in both steal orders. Under steal-parent
// execution the task pool holds at most one continuation regardless of
// loop length. Under steal-child execution the pool holds one task per
// element: the same loop fills a 64-descriptor pool and runs the other
// leaves inline.
func TestCilkSimConstantSpaceSpawnLoop(t *testing.T) {
	const n = 5000
	var hits int64
	res := RunCilkSim(Config{Procs: 1, Costs: costmodel.CilkPP()}, func(*W) CStep {
		root := &spawnLoopFrame{n: n, hits: &hits}
		return root.loop
	})
	if hits != n {
		t.Fatalf("leaves = %d, want %d", hits, n)
	}
	if res.MaxDeque > 1 {
		t.Errorf("steal-parent pool high-water = %d, want <= 1 (constant space)", res.MaxDeque)
	}

	leaf := Define1("leaf", func(w *W, _ int64) int64 {
		w.Work(leafCycles)
		return 1
	})
	child := Run(Config{Procs: 1, Costs: costmodel.CilkPP(), StackSize: 64}, func(w *W) int64 {
		for range n {
			leaf.Spawn(w, 0)
		}
		var total int64
		for range n {
			total += leaf.Join(w)
		}
		return total
	})
	if child.Value != n {
		t.Fatalf("steal-child leaves = %d, want %d", child.Value, n)
	}
	if child.Total.Spawns != 64 || child.Total.OverflowInlined != n-64 {
		t.Errorf("steal-child pool: %d spawns, %d inlined; want 64 and %d (one descriptor per element until full)",
			child.Total.Spawns, child.Total.OverflowInlined, n-64)
	}
}
