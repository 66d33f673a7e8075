// Code generated by woolgen. DO NOT EDIT.
//
//woolvet:generated sha256:70bd4f069efd8defb111c2c7a19441d47683dbc1d4d4a0c48bf175d32667b0fa

package mm

import (
	"gowool/internal/core"
)

// rowsWrap is Rows's steal handler: a thief (or the generic join
// path) reads the arguments back out of the descriptor and runs the
// body.
func rowsWrap(w *core.Worker, t *core.Task) {
	t.SetRes(rowsBody(w, t.Ctx().(*Matrices), t.Arg0(), t.Arg1()))
}

// rowsDef carries Rows's generic slow path: publication, overflow
// degradation and tracing stay on the TaskDef path.
// Assigned in init — a declaration initializer would be rejected as an
// initialization cycle through the recursive body.
var rowsDef *core.TaskDefC2[Matrices]

func init() { rowsDef = core.DefineC2[Matrices]("Rows", rowsBody) }

// SpawnRows spawns one Rows task. The private fast path flattens to
// plain stores into the descriptor; everything else routes through the
// generic TaskDef path.
//
// woolvet:noescape
func SpawnRows(w *core.Worker, c *Matrices, a0, a1 int64) {
	if t := w.SpawnPrepPrivate(); t != nil {
		t.SetC2(rowsWrap, c, a0, a1)
		w.SpawnCommitPrivate(t)
		return
	}
	rowsDef.Spawn(w, c, a0, a1)
}

// JoinRows joins with the most recently spawned task. Both inline
// paths call the body directly (statically); a stolen task's result is
// read back from the descriptor.
//
// woolvet:noescape
func JoinRows(w *core.Worker) int64 {
	if t := w.JoinPrepPrivate(); t != nil {
		return rowsBody(w, t.Ctx().(*Matrices), t.Arg0(), t.Arg1())
	}
	t, inline := w.JoinAcquire()
	if inline {
		return rowsBody(w, t.Ctx().(*Matrices), t.Arg0(), t.Arg1())
	}
	return t.Res()
}

// CallRows invokes the body directly, without creating a task.
//
// woolvet:inline
func CallRows(w *core.Worker, c *Matrices, a0, a1 int64) int64 { return rowsBody(w, c, a0, a1) }
