// Code generated by woolgen. DO NOT EDIT.
//
//woolvet:generated sha256:c8b559fa93d7ac556ebe0f5a239bff35cecbbf5176549b03008ac5eba1f9b2fa

package fibw

import (
	"gowool/internal/core"
)

// fibWrap is Fib's steal handler: a thief (or the generic join
// path) reads the arguments back out of the descriptor and runs the
// body.
func fibWrap(w *core.Worker, t *core.Task) { t.SetRes(fibBody(w, t.Arg0())) }

// fibDef carries Fib's generic slow path: publication, overflow
// degradation and tracing stay on the TaskDef path.
// Assigned in init — a declaration initializer would be rejected as an
// initialization cycle through the recursive body.
var fibDef *core.TaskDef1

func init() { fibDef = core.Define1("Fib", fibBody) }

// SpawnFib spawns one Fib task. The private fast path flattens to
// plain stores into the descriptor; everything else routes through the
// generic TaskDef path.
//
// woolvet:noescape
func SpawnFib(w *core.Worker, a0 int64) {
	if t := w.SpawnPrepPrivate(); t != nil {
		t.Set1(fibWrap, a0)
		w.SpawnCommitPrivate(t)
		return
	}
	fibDef.Spawn(w, a0)
}

// JoinFib joins with the most recently spawned task. Both inline
// paths call the body directly (statically); a stolen task's result is
// read back from the descriptor.
//
// woolvet:noescape
func JoinFib(w *core.Worker) int64 {
	if t := w.JoinPrepPrivate(); t != nil {
		return fibBody(w, t.Arg0())
	}
	t, inline := w.JoinAcquire()
	if inline {
		return fibBody(w, t.Arg0())
	}
	return t.Res()
}

// CallFib invokes the body directly, without creating a task.
//
// woolvet:inline
func CallFib(w *core.Worker, a0 int64) int64 { return fibBody(w, a0) }
