// Package core implements the direct task stack, the work-stealing
// scheduler described in Karl-Filip Faxén, "Efficient Work Stealing for
// Fine Grained Parallelism" (ICPP 2010), where it is called Wool.
//
// The task pool of each worker is an array of fixed-size task
// descriptors managed with a strict stack discipline: the owner pushes
// and pops at top, thieves steal at bot. Thief/victim synchronization
// happens on the state field of the task descriptor itself — the owner
// claims a task with an atomic exchange, a thief with a compare-and-swap
// — rather than on the top/bot indices as in Cilk, TBB or the Chase-Lev
// deque. top is private to the owner. bot carries no explicit
// synchronization: it is implicitly owned by whichever worker stole (or
// joined with) the task it points at, and a thief re-checks bot after
// its CAS, backing off when the value moved (the paper's ABA guard).
//
// On top of the basic algorithm the package implements the paper's
// optimizations: task-specific join functions (TaskDef1..TaskDef3 and
// the context-carrying variants call the task function directly on the
// inline path), private tasks with the trip-wire publication scheme
// (Section III-B), and leapfrogging for joins that find their task
// stolen (stealing only from the thief, Section I-b).
package core

import "sync/atomic"

// Task states. The paper packs TASK(w) as the wrapper function pointer
// and uses odd integers for the other values; Go cannot portably store a
// function pointer in an atomic word without unsafe, so the wrapper
// lives in its own field (fn) whose write is published by the atomic
// store of stateTask (release/acquire via sync/atomic).
const (
	// stateEmpty marks a descriptor holding no stealable task. It is
	// both the rest state and the transient state while a thief is
	// between its CAS and its commit (STOLEN) or back-off (restore).
	stateEmpty uint64 = 0

	// stateDone marks a stolen task whose thief has completed it.
	stateDone uint64 = 1

	// stateTask marks a live task that can be stolen or inlined.
	stateTask uint64 = 2

	// stateStolenBase tags STOLEN(i): stateStolenBase | i<<stolenShift.
	// Knowing the thief is what enables leapfrogging.
	stateStolenBase uint64 = 3
	stolenShift            = 8
)

// maxWorkers bounds Options.Workers: a thief index must survive the
// round trip through stolenState/stolenThief, and the state word has
// 64-stolenShift bits for it. NewPool rejects larger pools — silently
// truncated indices would make leapfrog steal from the wrong worker.
const maxWorkers uint64 = 1 << (64 - stolenShift)

func stolenState(thief int) uint64 { return stateStolenBase | uint64(thief)<<stolenShift }

func isStolen(s uint64) bool { return s&0xff == stateStolenBase }

func stolenThief(s uint64) int { return int(s >> stolenShift) }

// TaskFunc is the wrapper invoked for a stolen task (and on the generic
// join path). It reads its arguments from the descriptor and writes the
// result back into it. w is the worker executing the task, which for a
// stolen task is the thief, not the spawner.
type TaskFunc func(w *Worker, t *Task)

// Task is one descriptor in a worker's direct task stack. Descriptors
// are stored by value in the pool array — no pointers, no free lists —
// so a steal touches a single contiguous block holding both the
// synchronization word and the data needed to run the task.
//
// Field ownership:
//   - state: shared; always accessed atomically by both owner and thieves.
//   - fn, a0..a2, ctx: written by the owner before the state store that
//     publishes the task; read by a thief only after a successful CAS on
//     state (acquire), or by the owner itself.
//   - res: written by whoever ran the task; read by the owner after
//     it has observed completion through state.
//   - priv: owner-only. Thieves never touch it, which is what makes the
//     private-task fast path race-free without atomics (Section III-B).
//
// Descriptors are recycled without clearing, so a ctx pointer stays
// referenced until its slot is reused — at most StackSize stale
// references per worker, the price of an allocation-free spawn path.
//
// woolvet:cacheline size=128
type Task struct {
	// state transitions are claims: the owner Swaps, a thief
	// CompareAndSwaps. The only plain Stores are publication and the
	// thief's commit/back-off, each individually allowed at the site.
	// woolvet:atomic methods=Load,Swap,CompareAndSwap
	state atomic.Uint64

	// The argument words are published to thieves by the state word:
	// every owner write below must dominate the release store of
	// state, and a thief may read them only after its CAS claim
	// (publication pass, DESIGN.md §15).
	// woolvet:published-by state
	fn TaskFunc

	// woolvet:published-by state
	a0, a1, a2 int64
	// woolvet:published-by state
	ctx any

	// res flows the other way: the thief writes it before its DONE
	// release, the owner reads it after the acquire load of state.
	// woolvet:published-by state
	res int64

	priv bool

	// Pad the descriptor to 128 bytes (two cache lines on common
	// hardware, one on those with 128-byte lines) so adjacent
	// descriptors do not false-share while owner and thief work on
	// neighbouring stack slots. Checked by TestTaskSize and by the
	// layoutguard pass (woolvet:cacheline size=128 above).
	_ [63]byte
}

// The accessors below are the argument-storage surface for woolgen's
// monomorphic generated code (DESIGN.md §13), which lives outside this
// package and therefore cannot touch the unexported descriptor fields.
// Each is a leaf small enough for the inliner, so a generated spawn
// flattens to plain stores into the descriptor — the same instruction
// sequence the TaskDef* methods produce inside the package.

// Set1 stores the wrapper and one int64 argument.
//
// woolvet:inline
// woolvet:publish-write state
func (t *Task) Set1(fn TaskFunc, a0 int64) {
	t.fn = fn
	t.a0 = a0
}

// Set2 stores the wrapper and two int64 arguments.
//
// woolvet:inline
// woolvet:publish-write state
func (t *Task) Set2(fn TaskFunc, a0, a1 int64) {
	t.fn = fn
	t.a0 = a0
	t.a1 = a1
}

// Set3 stores the wrapper and three int64 arguments.
//
// woolvet:inline
// woolvet:publish-write state
func (t *Task) Set3(fn TaskFunc, a0, a1, a2 int64) {
	t.fn = fn
	t.a0 = a0
	t.a1 = a1
	t.a2 = a2
}

// SetC1 stores the wrapper, a context pointer and one int64 argument.
// Storing a pointer in the interface slot does not allocate.
//
// woolvet:inline
// woolvet:publish-write state
func (t *Task) SetC1(fn TaskFunc, ctx any, a0 int64) {
	t.fn = fn
	t.ctx = ctx
	t.a0 = a0
}

// SetC2 stores the wrapper, a context pointer and two int64 arguments.
//
// woolvet:inline
// woolvet:publish-write state
func (t *Task) SetC2(fn TaskFunc, ctx any, a0, a1 int64) {
	t.fn = fn
	t.ctx = ctx
	t.a0 = a0
	t.a1 = a1
}

// SetC3 stores the wrapper, a context pointer and three int64
// arguments.
//
// woolvet:inline
// woolvet:publish-write state
func (t *Task) SetC3(fn TaskFunc, ctx any, a0, a1, a2 int64) {
	t.fn = fn
	t.ctx = ctx
	t.a0 = a0
	t.a1 = a1
	t.a2 = a2
}

// Arg0 returns the first int64 argument.
//
// woolvet:inline
func (t *Task) Arg0() int64 { return t.a0 }

// Arg1 returns the second int64 argument.
//
// woolvet:inline
func (t *Task) Arg1() int64 { return t.a1 }

// Arg2 returns the third int64 argument.
//
// woolvet:inline
func (t *Task) Arg2() int64 { return t.a2 }

// Ctx returns the stored context value.
//
// woolvet:inline
func (t *Task) Ctx() any { return t.ctx }

// Res returns the task's result (valid once the owner has observed
// completion through the join protocol).
//
// woolvet:inline
func (t *Task) Res() int64 { return t.res }

// SetRes stores the task's result (wrapper use).
//
// woolvet:inline
// woolvet:publish-write state
func (t *Task) SetRes(r int64) { t.res = r }
