// Code generated by woolgen. DO NOT EDIT.
//
//woolvet:generated sha256:c44897c930ce2f281098ca340101af5b1069883394c1f2f376e5888dd6119c4d

package ports

import (
	"gowool/internal/core"
)

// noopWrap is Noop's steal handler: a thief (or the generic join
// path) reads the arguments back out of the descriptor and runs the
// body.
func noopWrap(w *core.Worker, t *core.Task) { t.SetRes(noopBody(w, t.Arg0())) }

// noopDef carries Noop's generic slow path: publication, overflow
// degradation and tracing stay on the TaskDef path.
// Assigned in init — a declaration initializer would be rejected as an
// initialization cycle through the recursive body.
var noopDef *core.TaskDef1

func init() { noopDef = core.Define1("Noop", noopBody) }

// SpawnNoop spawns one Noop task. The private fast path flattens to
// plain stores into the descriptor; everything else routes through the
// generic TaskDef path.
//
// woolvet:noescape
func SpawnNoop(w *core.Worker, a0 int64) {
	if t := w.SpawnPrepPrivate(); t != nil {
		t.Set1(noopWrap, a0)
		w.SpawnCommitPrivate(t)
		return
	}
	noopDef.Spawn(w, a0)
}

// JoinNoop joins with the most recently spawned task. Both inline
// paths call the body directly (statically); a stolen task's result is
// read back from the descriptor.
//
// woolvet:noescape
func JoinNoop(w *core.Worker) int64 {
	if t := w.JoinPrepPrivate(); t != nil {
		return noopBody(w, t.Arg0())
	}
	t, inline := w.JoinAcquire()
	if inline {
		return noopBody(w, t.Arg0())
	}
	return t.Res()
}

// CallNoop invokes the body directly, without creating a task.
//
// woolvet:inline
func CallNoop(w *core.Worker, a0 int64) int64 { return noopBody(w, a0) }

// SpawnNoopN spawns n Noop tasks with arguments base..base+n-1 in
// batches: each core.BatchPrepPrivate window pays the per-spawn
// bookkeeping once, and any slot the fast path declines falls back to
// the one-at-a-time spawn with its full generic semantics.
//
// woolvet:noescape
func SpawnNoopN(w *core.Worker, base int64, n int) {
	for n > 0 {
		b := w.BatchPrepPrivate(n)
		if b == nil {
			SpawnNoop(w, base)
			base++
			n--
			continue
		}
		for j := range b {
			b[j].Set1(noopWrap, base+int64(j))
		}
		w.BatchCommitPrivate(len(b))
		base += int64(len(b))
		n -= len(b)
	}
}

// JoinNoopN joins the n most recently spawned Noop tasks (LIFO) and
// returns the sum of their results.
//
// woolvet:noescape
func JoinNoopN(w *core.Worker, n int) int64 {
	var sum int64
	for ; n > 0; n-- {
		sum += JoinNoop(w)
	}
	return sum
}

// recWrap is Rec's steal handler: a thief (or the generic join
// path) reads the arguments back out of the descriptor and runs the
// body.
func recWrap(w *core.Worker, t *core.Task) { t.SetRes(recBody(w, t.Ctx().(*RecCtx), t.Arg0())) }

// recDef carries Rec's generic slow path: publication, overflow
// degradation and tracing stay on the TaskDef path.
// Assigned in init — a declaration initializer would be rejected as an
// initialization cycle through the recursive body.
var recDef *core.TaskDefC1[RecCtx]

func init() { recDef = core.DefineC1[RecCtx]("Rec", recBody) }

// SpawnRec spawns one Rec task. The private fast path flattens to
// plain stores into the descriptor; everything else routes through the
// generic TaskDef path.
//
// woolvet:noescape
func SpawnRec(w *core.Worker, c *RecCtx, a0 int64) {
	if t := w.SpawnPrepPrivate(); t != nil {
		t.SetC1(recWrap, c, a0)
		w.SpawnCommitPrivate(t)
		return
	}
	recDef.Spawn(w, c, a0)
}

// JoinRec joins with the most recently spawned task. Both inline
// paths call the body directly (statically); a stolen task's result is
// read back from the descriptor.
//
// woolvet:noescape
func JoinRec(w *core.Worker) int64 {
	if t := w.JoinPrepPrivate(); t != nil {
		return recBody(w, t.Ctx().(*RecCtx), t.Arg0())
	}
	t, inline := w.JoinAcquire()
	if inline {
		return recBody(w, t.Ctx().(*RecCtx), t.Arg0())
	}
	return t.Res()
}

// CallRec invokes the body directly, without creating a task.
//
// woolvet:inline
func CallRec(w *core.Worker, c *RecCtx, a0 int64) int64 { return recBody(w, c, a0) }

// rangeWrap is Range's steal handler: a thief (or the generic join
// path) reads the arguments back out of the descriptor and runs the
// body.
func rangeWrap(w *core.Worker, t *core.Task) {
	t.SetRes(rangeBody(w, t.Ctx().(*RangeCtx), t.Arg0(), t.Arg1()))
}

// rangeDef carries Range's generic slow path: publication, overflow
// degradation and tracing stay on the TaskDef path.
// Assigned in init — a declaration initializer would be rejected as an
// initialization cycle through the recursive body.
var rangeDef *core.TaskDefC2[RangeCtx]

func init() { rangeDef = core.DefineC2[RangeCtx]("Range", rangeBody) }

// SpawnRange spawns one Range task. The private fast path flattens to
// plain stores into the descriptor; everything else routes through the
// generic TaskDef path.
//
// woolvet:noescape
func SpawnRange(w *core.Worker, c *RangeCtx, a0, a1 int64) {
	if t := w.SpawnPrepPrivate(); t != nil {
		t.SetC2(rangeWrap, c, a0, a1)
		w.SpawnCommitPrivate(t)
		return
	}
	rangeDef.Spawn(w, c, a0, a1)
}

// JoinRange joins with the most recently spawned task. Both inline
// paths call the body directly (statically); a stolen task's result is
// read back from the descriptor.
//
// woolvet:noescape
func JoinRange(w *core.Worker) int64 {
	if t := w.JoinPrepPrivate(); t != nil {
		return rangeBody(w, t.Ctx().(*RangeCtx), t.Arg0(), t.Arg1())
	}
	t, inline := w.JoinAcquire()
	if inline {
		return rangeBody(w, t.Ctx().(*RangeCtx), t.Arg0(), t.Arg1())
	}
	return t.Res()
}

// CallRange invokes the body directly, without creating a task.
//
// woolvet:inline
func CallRange(w *core.Worker, c *RangeCtx, a0, a1 int64) int64 { return rangeBody(w, c, a0, a1) }
