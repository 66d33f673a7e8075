package core

// Task definitions generate the task-specific spawn and join routines
// the paper describes in Section III-A: the join of an inlined task
// calls the task function directly (visible to the Go compiler's
// inliner) instead of going through the stored wrapper. Definitions are
// created once (typically in a package var) and are safe for concurrent
// use by any worker.
//
// TaskDef1..TaskDef3 carry one to three int64 arguments. TaskDefC1 and
// TaskDefC2 additionally carry a typed context pointer for tasks that
// operate on shared structures (matrices, strings, ...). The context is
// stored in an interface slot; storing a pointer there does not
// allocate.
//
// A function that wants the generic join (paying the indirect wrapper
// call — the paper's "synchronize on task" row in Table II) uses
// Worker.JoinAny instead of the task-specific Join.

// TaskDef1 defines a task taking one int64 and returning int64.
type TaskDef1 struct {
	fn   func(*Worker, int64) int64
	wrap TaskFunc
	name string
}

// Define1 creates the task-specific routines for fn.
func Define1(name string, fn func(*Worker, int64) int64) *TaskDef1 {
	d := &TaskDef1{fn: fn, name: name}
	d.wrap = func(w *Worker, t *Task) { t.res = fn(w, t.a0) }
	return d
}

// Name returns the definition's diagnostic name.
func (d *TaskDef1) Name() string { return d.name }

// Spawn pushes a task on w's pool, making it available for stealing
// (or, in the private region, deferring that synchronization). When the
// pool is full the spawn degrades to an inline call executed here (the
// serial elision).
func (d *TaskDef1) Spawn(w *Worker, a0 int64) {
	t := w.push()
	if t == nil {
		w.noteOverflowInlined(d.fn(w, a0))
		return
	}
	t.a0 = a0
	t.fn = d.wrap
	w.spawn(t)
}

// Call invokes the task function directly, without creating a task —
// the ordinary recursive call between SPAWN and JOIN in the Wool idiom.
func (d *TaskDef1) Call(w *Worker, a0 int64) int64 { return d.fn(w, a0) }

// Join joins with the most recently spawned task: inline it if it is
// still in the pool (direct call to the task function), otherwise
// resolve the steal (leapfrogging until the thief completes it).
func (d *TaskDef1) Join(w *Worker) int64 {
	t, inline := w.joinAcquire()
	if inline {
		return d.fn(w, t.a0)
	}
	return t.res
}

// TaskDef2 defines a task taking two int64 arguments.
type TaskDef2 struct {
	fn   func(*Worker, int64, int64) int64
	wrap TaskFunc
	name string
}

// Define2 creates the task-specific routines for fn.
func Define2(name string, fn func(*Worker, int64, int64) int64) *TaskDef2 {
	d := &TaskDef2{fn: fn, name: name}
	d.wrap = func(w *Worker, t *Task) { t.res = fn(w, t.a0, t.a1) }
	return d
}

// Name returns the definition's diagnostic name.
func (d *TaskDef2) Name() string { return d.name }

// Spawn pushes a task on w's pool (inline on overflow, see TaskDef1).
func (d *TaskDef2) Spawn(w *Worker, a0, a1 int64) {
	t := w.push()
	if t == nil {
		w.noteOverflowInlined(d.fn(w, a0, a1))
		return
	}
	t.a0, t.a1 = a0, a1
	t.fn = d.wrap
	w.spawn(t)
}

// Call invokes the task function directly, without creating a task.
func (d *TaskDef2) Call(w *Worker, a0, a1 int64) int64 { return d.fn(w, a0, a1) }

// Join joins with the most recently spawned task.
func (d *TaskDef2) Join(w *Worker) int64 {
	t, inline := w.joinAcquire()
	if inline {
		return d.fn(w, t.a0, t.a1)
	}
	return t.res
}

// TaskDef3 defines a task taking three int64 arguments.
type TaskDef3 struct {
	fn   func(*Worker, int64, int64, int64) int64
	wrap TaskFunc
	name string
}

// Define3 creates the task-specific routines for fn.
func Define3(name string, fn func(*Worker, int64, int64, int64) int64) *TaskDef3 {
	d := &TaskDef3{fn: fn, name: name}
	d.wrap = func(w *Worker, t *Task) { t.res = fn(w, t.a0, t.a1, t.a2) }
	return d
}

// Name returns the definition's diagnostic name.
func (d *TaskDef3) Name() string { return d.name }

// Spawn pushes a task on w's pool (inline on overflow, see TaskDef1).
func (d *TaskDef3) Spawn(w *Worker, a0, a1, a2 int64) {
	t := w.push()
	if t == nil {
		w.noteOverflowInlined(d.fn(w, a0, a1, a2))
		return
	}
	t.a0, t.a1, t.a2 = a0, a1, a2
	t.fn = d.wrap
	w.spawn(t)
}

// Call invokes the task function directly, without creating a task.
func (d *TaskDef3) Call(w *Worker, a0, a1, a2 int64) int64 { return d.fn(w, a0, a1, a2) }

// Join joins with the most recently spawned task.
func (d *TaskDef3) Join(w *Worker) int64 {
	t, inline := w.joinAcquire()
	if inline {
		return d.fn(w, t.a0, t.a1, t.a2)
	}
	return t.res
}

// TaskDefC1 defines a task taking a typed context pointer and one
// int64. The context travels in the descriptor's interface slot;
// storing and loading a pointer there does not allocate.
type TaskDefC1[C any] struct {
	fn   func(*Worker, *C, int64) int64
	wrap TaskFunc
	name string
}

// DefineC1 creates the task-specific routines for fn.
func DefineC1[C any](name string, fn func(*Worker, *C, int64) int64) *TaskDefC1[C] {
	d := &TaskDefC1[C]{fn: fn, name: name}
	d.wrap = func(w *Worker, t *Task) { t.res = fn(w, t.ctx.(*C), t.a0) }
	return d
}

// Name returns the definition's diagnostic name.
func (d *TaskDefC1[C]) Name() string { return d.name }

// Spawn pushes a task on w's pool (inline on overflow, see TaskDef1).
func (d *TaskDefC1[C]) Spawn(w *Worker, c *C, a0 int64) {
	t := w.push()
	if t == nil {
		w.noteOverflowInlined(d.fn(w, c, a0))
		return
	}
	t.ctx = c
	t.a0 = a0
	t.fn = d.wrap
	w.spawn(t)
}

// Call invokes the task function directly, without creating a task.
func (d *TaskDefC1[C]) Call(w *Worker, c *C, a0 int64) int64 { return d.fn(w, c, a0) }

// Join joins with the most recently spawned task.
func (d *TaskDefC1[C]) Join(w *Worker) int64 {
	t, inline := w.joinAcquire()
	if inline {
		return d.fn(w, t.ctx.(*C), t.a0)
	}
	return t.res
}

// TaskDefC2 defines a task taking a typed context pointer and two
// int64 arguments.
type TaskDefC2[C any] struct {
	fn   func(*Worker, *C, int64, int64) int64
	wrap TaskFunc
	name string
}

// DefineC2 creates the task-specific routines for fn.
func DefineC2[C any](name string, fn func(*Worker, *C, int64, int64) int64) *TaskDefC2[C] {
	d := &TaskDefC2[C]{fn: fn, name: name}
	d.wrap = func(w *Worker, t *Task) { t.res = fn(w, t.ctx.(*C), t.a0, t.a1) }
	return d
}

// Name returns the definition's diagnostic name.
func (d *TaskDefC2[C]) Name() string { return d.name }

// Spawn pushes a task on w's pool (inline on overflow, see TaskDef1).
func (d *TaskDefC2[C]) Spawn(w *Worker, c *C, a0, a1 int64) {
	t := w.push()
	if t == nil {
		w.noteOverflowInlined(d.fn(w, c, a0, a1))
		return
	}
	t.ctx = c
	t.a0, t.a1 = a0, a1
	t.fn = d.wrap
	w.spawn(t)
}

// Call invokes the task function directly, without creating a task.
func (d *TaskDefC2[C]) Call(w *Worker, c *C, a0, a1 int64) int64 { return d.fn(w, c, a0, a1) }

// Join joins with the most recently spawned task.
func (d *TaskDefC2[C]) Join(w *Worker) int64 {
	t, inline := w.joinAcquire()
	if inline {
		return d.fn(w, t.ctx.(*C), t.a0, t.a1)
	}
	return t.res
}

// TaskDefC3 defines a task taking a typed context pointer and three
// int64 arguments.
type TaskDefC3[C any] struct {
	fn   func(*Worker, *C, int64, int64, int64) int64
	wrap TaskFunc
	name string
}

// DefineC3 creates the task-specific routines for fn.
func DefineC3[C any](name string, fn func(*Worker, *C, int64, int64, int64) int64) *TaskDefC3[C] {
	d := &TaskDefC3[C]{fn: fn, name: name}
	d.wrap = func(w *Worker, t *Task) { t.res = fn(w, t.ctx.(*C), t.a0, t.a1, t.a2) }
	return d
}

// Name returns the definition's diagnostic name.
func (d *TaskDefC3[C]) Name() string { return d.name }

// Spawn pushes a task on w's pool (inline on overflow, see TaskDef1).
func (d *TaskDefC3[C]) Spawn(w *Worker, c *C, a0, a1, a2 int64) {
	t := w.push()
	if t == nil {
		w.noteOverflowInlined(d.fn(w, c, a0, a1, a2))
		return
	}
	t.ctx = c
	t.a0, t.a1, t.a2 = a0, a1, a2
	t.fn = d.wrap
	w.spawn(t)
}

// Call invokes the task function directly, without creating a task.
func (d *TaskDefC3[C]) Call(w *Worker, c *C, a0, a1, a2 int64) int64 {
	return d.fn(w, c, a0, a1, a2)
}

// Join joins with the most recently spawned task.
func (d *TaskDefC3[C]) Join(w *Worker) int64 {
	t, inline := w.joinAcquire()
	if inline {
		return d.fn(w, t.ctx.(*C), t.a0, t.a1, t.a2)
	}
	return t.res
}

// JoinAny is the generic join: like the task-specific Join but the
// inline path goes through the stored wrapper (an indirect call) and
// the result is read back from the descriptor. It exists to measure
// the value of task-specific joins (Table II, "synchronize on task"
// versus "task specific join") and for call sites that juggle several
// task types at once.
func (w *Worker) JoinAny() int64 {
	t, inline := w.joinAcquire()
	if inline {
		fn := t.fn
		fn(w, t)
	}
	return t.res
}
