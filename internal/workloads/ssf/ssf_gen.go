// Code generated by woolgen. DO NOT EDIT.
//
//woolvet:generated sha256:1fe3c80e6d17ed62a341196ebc6891c19c4d3139d360917b1567aabc57043714

package ssf

import (
	"gowool/internal/core"
)

// scanWrap is Scan's steal handler: a thief (or the generic join
// path) reads the arguments back out of the descriptor and runs the
// body.
func scanWrap(w *core.Worker, t *core.Task) {
	t.SetRes(scanBody(w, t.Ctx().(*Work), t.Arg0(), t.Arg1()))
}

// scanDef carries Scan's generic slow path: publication, overflow
// degradation and tracing stay on the TaskDef path.
// Assigned in init — a declaration initializer would be rejected as an
// initialization cycle through the recursive body.
var scanDef *core.TaskDefC2[Work]

func init() { scanDef = core.DefineC2[Work]("Scan", scanBody) }

// SpawnScan spawns one Scan task. The private fast path flattens to
// plain stores into the descriptor; everything else routes through the
// generic TaskDef path.
//
// woolvet:noescape
func SpawnScan(w *core.Worker, c *Work, a0, a1 int64) {
	if t := w.SpawnPrepPrivate(); t != nil {
		t.SetC2(scanWrap, c, a0, a1)
		w.SpawnCommitPrivate(t)
		return
	}
	scanDef.Spawn(w, c, a0, a1)
}

// JoinScan joins with the most recently spawned task. Both inline
// paths call the body directly (statically); a stolen task's result is
// read back from the descriptor.
//
// woolvet:noescape
func JoinScan(w *core.Worker) int64 {
	if t := w.JoinPrepPrivate(); t != nil {
		return scanBody(w, t.Ctx().(*Work), t.Arg0(), t.Arg1())
	}
	t, inline := w.JoinAcquire()
	if inline {
		return scanBody(w, t.Ctx().(*Work), t.Arg0(), t.Arg1())
	}
	return t.Res()
}

// CallScan invokes the body directly, without creating a task.
//
// woolvet:inline
func CallScan(w *core.Worker, c *Work, a0, a1 int64) int64 { return scanBody(w, c, a0, a1) }
