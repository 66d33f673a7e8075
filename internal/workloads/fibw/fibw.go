// Package fibw is the fib benchmark of the paper (Figures 1 and 2,
// Table II): the doubly recursive Fibonacci function with no cutoff,
// spawning a task roughly every 13 cycles of useful work — the
// most spawn-intensive workload in the suite and the paper's yardstick
// for inlined-task overhead.
package fibw

import (
	"gowool/internal/core"
	"gowool/internal/sched"
)

// Serial is the reference implementation with no task constructs.
func Serial(n int64) int64 {
	if n < 2 {
		return n
	}
	return Serial(n-1) + Serial(n-2)
}

// Tasks returns the number of tasks a no-cutoff fib(n) spawns (one per
// internal call, paper notation N_T).
func Tasks(n int64) int64 {
	if n < 2 {
		return 0
	}
	return 1 + Tasks(n-1) + Tasks(n-2)
}

//go:generate go run gowool/cmd/woolgen -pkg fibw -out fib_gen.go -task Fib:1

// fibBody is fib as written for woolgen, which expands it into
// fibExpanded (fib_gen.go): each SpawnFib and JoinFib becomes the
// private fast path in place, plain descriptor stores and a direct
// call back into the expansion, where NewWool's TaskDef1 pays the
// generic method-call frames. Everything generated calls the
// expansion; run it with CallFib(w, n).
func fibBody(w *core.Worker, n int64) int64 {
	if n < 2 {
		return n
	}
	SpawnFib(w, n-2)
	a := fibBody(w, n-1)
	b := JoinFib(w)
	return a + b
}

// NewWool builds the direct-task-stack fib (paper Figure 2).
func NewWool() *core.TaskDef1 {
	var fib *core.TaskDef1
	fib = core.Define1("fib", func(w *core.Worker, n int64) int64 {
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

// NewWoolGenericJoin builds fib joined through the generic wrapper
// path (Worker.JoinAny) instead of the task-specific join — the
// Table II "synchronize on task" rung.
func NewWoolGenericJoin() *core.TaskDef1 {
	var fib *core.TaskDef1
	fib = core.Define1("fib-generic", func(w *core.Worker, n int64) int64 {
		if n < 2 {
			return n
		}
		fib.Spawn(w, n-2)
		a := fib.Call(w, n-1)
		b := w.JoinAny()
		return a + b
	})
	return fib
}

// Job returns fib as a generic RecJob: the divide-and-conquer body
// written once, instantiated for any registered scheduler via
// internal/sched (the baselines' ports used to be hand-written copies
// of NewWool, one per scheduler package).
func Job(n, reps int64) sched.RecJob {
	return sched.RecJob{
		Name: "fib",
		Root: n,
		Reps: reps,
		Leaf: func(n int64) (int64, bool) {
			if n < 2 {
				return n, true
			}
			return 0, false
		},
		Split: func(n int64) (inline, spawned int64) { return n - 1, n - 2 },
	}
}

// LeafWork and NodeWork are the virtual work charged by the simulated
// fib: ~13 cycles per spawned task, matching the paper's measured task
// granularity G_T(fib) ≈ 13 cycles (Section I: "it spawns a task for
// every 13 cycles worth of work").
const (
	LeafWork = 4
	NodeWork = 13
)

// SimCycles is the virtual work the simulator charges once the body
// of fib(n) returns: LeafWork at a leaf, NodeWork at an inner node.
func SimCycles(n int64) uint64 {
	if n < 2 {
		return LeafWork
	}
	return NodeWork
}
