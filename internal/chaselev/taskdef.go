package chaselev

// Task definitions mirror the core package's API so workloads port
// one-to-one. Faithful to TBB's structure, the inline join path goes
// through the stored wrapper function (there are no task-specific
// joins in TBB), and every spawn pays the free-list allocation.

// join joins with w's most recently spawned task — run inline through
// its stored wrapper when still in the deque, waited out when stolen —
// and recycles the task structure. Every arity's Join is this: the
// wrapper, not the definition, knows the argument shape.
func (w *Worker) join() int64 {
	t, inline := w.joinAcquire()
	if inline {
		fn := t.fn
		fn(w, t)
	}
	res := t.res
	w.release(t)
	return res
}

// TaskDef1 defines a task taking one int64.
type TaskDef1 struct {
	wrap TaskFunc
	fn   func(*Worker, int64) int64
	name string
}

// Define1 creates the routines for fn.
func Define1(name string, fn func(*Worker, int64) int64) *TaskDef1 {
	d := &TaskDef1{fn: fn, name: name}
	d.wrap = func(w *Worker, t *Task) { t.res = fn(w, t.a0) }
	return d
}

// Spawn allocates a task (free list) and pushes it on w's deque. When
// the deque is full the spawn degrades to inline serial execution (the
// child runs now, the join reads its stored result).
func (d *TaskDef1) Spawn(w *Worker, a0 int64) {
	t := w.alloc()
	t.a0 = a0
	t.fn = d.wrap
	t.stolenBy.Store(0)
	t.done.Store(false)
	if !w.push(t) {
		w.elide(t)
	}
}

// Call invokes the task function directly.
func (d *TaskDef1) Call(w *Worker, a0 int64) int64 { return d.fn(w, a0) }

// Join joins with the most recently spawned task.
func (d *TaskDef1) Join(w *Worker) int64 { return w.join() }

// TaskDef2 defines a task taking two int64 arguments.
type TaskDef2 struct {
	wrap TaskFunc
	fn   func(*Worker, int64, int64) int64
	name string
}

// Define2 creates the routines for fn.
func Define2(name string, fn func(*Worker, int64, int64) int64) *TaskDef2 {
	d := &TaskDef2{fn: fn, name: name}
	d.wrap = func(w *Worker, t *Task) { t.res = fn(w, t.a0, t.a1) }
	return d
}

// Spawn allocates a task and pushes it on w's deque.
func (d *TaskDef2) Spawn(w *Worker, a0, a1 int64) {
	t := w.alloc()
	t.a0, t.a1 = a0, a1
	t.fn = d.wrap
	t.stolenBy.Store(0)
	t.done.Store(false)
	if !w.push(t) {
		w.elide(t)
	}
}

// Call invokes the task function directly.
func (d *TaskDef2) Call(w *Worker, a0, a1 int64) int64 { return d.fn(w, a0, a1) }

// Join joins with the most recently spawned task.
func (d *TaskDef2) Join(w *Worker) int64 { return w.join() }

// TaskDefC3 defines a task taking a typed context pointer and three int64s.
type TaskDefC3[C any] struct {
	wrap TaskFunc
	fn   func(*Worker, *C, int64, int64, int64) int64
	name string
}

// DefineC3 creates the routines for fn.
func DefineC3[C any](name string, fn func(*Worker, *C, int64, int64, int64) int64) *TaskDefC3[C] {
	d := &TaskDefC3[C]{fn: fn, name: name}
	d.wrap = func(w *Worker, t *Task) { t.res = fn(w, t.ctx.(*C), t.a0, t.a1, t.a2) }
	return d
}

// Spawn allocates a task and pushes it on w's deque.
func (d *TaskDefC3[C]) Spawn(w *Worker, c *C, a0, a1, a2 int64) {
	t := w.alloc()
	t.ctx = c
	t.a0, t.a1, t.a2 = a0, a1, a2
	t.fn = d.wrap
	t.stolenBy.Store(0)
	t.done.Store(false)
	if !w.push(t) {
		w.elide(t)
	}
}

// Call invokes the task function directly.
func (d *TaskDefC3[C]) Call(w *Worker, c *C, a0, a1, a2 int64) int64 {
	return d.fn(w, c, a0, a1, a2)
}

// Join joins with the most recently spawned task.
func (d *TaskDefC3[C]) Join(w *Worker) int64 { return w.join() }

// Name returns the definition's diagnostic name.
func (d *TaskDef1) Name() string { return d.name }

// Name returns the definition's diagnostic name.
func (d *TaskDef2) Name() string { return d.name }

// Name returns the definition's diagnostic name.
func (d *TaskDefC3[C]) Name() string { return d.name }
