// Package stress is the paper's stress micro benchmark (Section IV-A):
// a balanced binary tree of tasks whose leaves run a simple loop with
// no memory references, repeated many times with serialization between
// repetitions. Leaf iterations and tree height control task and
// region granularity precisely, which is what makes it the paper's
// instrument for measuring load-balancing performance (Figures 1, 4,
// Table III) — "for some systems, this overhead is large enough that
// adding processors makes performance worse."
//
// The paper's two workload sets use leaves of 256 iterations (512
// cycles) and 4096 iterations (8K cycles): two cycles per iteration,
// which is what the simulated version charges.
package stress

import (
	"gowool/internal/core"
	"gowool/internal/sched"
)

// CyclesPerIter is the paper's cost of one leaf loop iteration (a
// simple no-memory loop retires ~2 cycles per iteration).
const CyclesPerIter = 2

// SpinLeaf is the leaf kernel: iters iterations of a loop making no
// memory references. Returns 1 so tree results count leaves.
//
//go:noinline
func SpinLeaf(iters int64) int64 {
	acc := uint64(1)
	for i := int64(0); i < iters; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	if acc == 0 { // never true; keeps the loop from being optimized out
		return 0
	}
	return 1
}

// Serial runs one tree of the given height serially and returns the
// leaf count.
func Serial(height, iters int64) int64 {
	if height == 0 {
		return SpinLeaf(iters)
	}
	return Serial(height-1, iters) + Serial(height-1, iters)
}

// SerialReps runs reps serialized repetitions.
func SerialReps(height, iters, reps int64) int64 {
	var total int64
	for r := int64(0); r < reps; r++ {
		total += Serial(height, iters)
	}
	return total
}

// NewWool builds the task-tree kernel for the direct task stack; the
// second argument of the task is the leaf iteration count.
func NewWool() *core.TaskDef2 {
	var tree *core.TaskDef2
	tree = core.Define2("stress", func(w *core.Worker, height, iters int64) int64 {
		if height == 0 {
			return SpinLeaf(iters)
		}
		tree.Spawn(w, height-1, iters)
		a := tree.Call(w, height-1, iters)
		b := tree.Join(w)
		return a + b
	})
	return tree
}

// RunWool executes reps serialized repetitions on the pool.
func RunWool(p *core.Pool, tree *core.TaskDef2, height, iters, reps int64) int64 {
	return p.Run(func(w *core.Worker) int64 {
		var total int64
		for r := int64(0); r < reps; r++ {
			total += tree.Call(w, height, iters)
		}
		return total
	})
}

// Job returns the stress tree as a generic RecJob: the recursion
// parameter is the height, the leaf iteration count travels by
// closure capture, and reps serialized parallel regions are run. One
// body, instantiated for any registered scheduler via internal/sched.
func Job(height, iters, reps int64) sched.RecJob {
	return sched.RecJob{
		Name: "stress",
		Root: height,
		Reps: reps,
		Leaf: func(h int64) (int64, bool) {
			if h == 0 {
				return SpinLeaf(iters), true
			}
			return 0, false
		},
		Split: func(h int64) (inline, spawned int64) { return h - 1, h - 1 },
	}
}

// SimCycles returns the virtual work the simulator charges once the
// body of a tree node of height h returns: iters iterations at
// CyclesPerIter at a leaf, nothing at an inner node.
func SimCycles(iters int64) func(h int64) uint64 {
	return func(h int64) uint64 {
		if h == 0 {
			return uint64(iters) * CyclesPerIter
		}
		return 0
	}
}
