package core

// The monomorphic fast-path API: the surface woolgen-generated code is
// written against (DESIGN.md §13). The TaskDef* methods in taskdef.go
// pay two or three call frames per spawn/join pair (the Spawn/Join
// method itself, push or joinAcquire, and the indirect wrapper call on
// a generic inline join) because their bodies exceed the inliner's
// budget. Generated code instead composes the tiny prep/commit leaves
// below, each individually inlinable, so the whole private-path
// spawn+join pair flattens into one straight-line instruction sequence
// with a direct, statically-known call into the task body — the Go
// analogue of the paper's per-task-type generated spawn/join code
// whose fast path is fully visible to the optimizer (Section III-A).
//
// Every prep function is gated on Worker.genFast and returns nil to
// route the operation to the generic slow path (the TaskDef* methods),
// which carries the full semantics: trip-wire publication, overflow
// degradation, public-region publication, tracing. The fast path
// therefore never needs a hook: when any hook could fire, genFast is
// false and the fast path declines.

// SpawnPrepPrivate returns the descriptor for a monomorphic private
// fast-path spawn, or nil when this spawn must take the generic slow
// path: the trip wire is pending, the stack is full, the slot is in
// the public region, or tracing is active (genFast). The
// caller fills the descriptor (Task.Set1 and friends) and commits with
// SpawnCommitPrivate. Owner only.
//
// The returned descriptor is unclaimed and owner-writable: an acquire
// of state in the publication pass's model, so generated code may
// store arguments into it before the commit releases it.
//
// woolvet:inline
// woolvet:acquire state
func (w *Worker) SpawnPrepPrivate() *Task {
	if !w.genFast || w.morePublic.Load() || w.top >= len(w.tasks) || int64(w.top) < w.pubShadow {
		return nil
	}
	return &w.tasks[w.top]
}

// SpawnCommitPrivate completes a fast-path spawn of the descriptor
// returned by SpawnPrepPrivate: mark it private (owner-only flag — no
// atomics; the paper's private spawn) and advance top. Owner only.
//
// After the commit the descriptor is live: the trip-wire publication
// path may promote it to a stealable public task at any moment, so no
// argument write may follow — a release of state in the publication
// pass's model even though the private path itself performs no atomic
// store.
//
// woolvet:inline
// woolvet:release state
func (w *Worker) SpawnCommitPrivate(t *Task) {
	t.priv = true
	w.top++
	w.stats.Spawns++
}

// JoinPrepPrivate claims the youngest task when it is a private
// descriptor eligible for the monomorphic fast path, or returns nil to
// route the join to the generic path (JoinAcquire): the task is
// public or stolen, an overflow-inlined result is pending, or
// tracing is active. On success the task is claimed (plain
// flag flip, the paper's 3-cycle join) and the caller performs the
// direct call into the task body. Owner only.
//
// woolvet:inline
// woolvet:acquire state
func (w *Worker) JoinPrepPrivate() *Task {
	if !w.genFast || len(w.ovf) != 0 {
		return nil
	}
	t := &w.tasks[w.top-1]
	if !t.priv {
		return nil
	}
	t.priv = false
	w.top--
	w.stats.JoinsInlinedPrivate++
	return t
}

// JoinAcquire is the generic join acquisition, exported for generated
// code's slow path: pop the top task and try to claim it. It returns
// (task, true) when the caller should inline the task — generated code
// performs the direct, task-specific call, which is what distinguishes
// it from Worker.JoinAny's indirect wrapper call — and (task, false)
// when the slow path already ran the task and the result is in the
// descriptor (Task.Res).
//
// woolvet:inline
// woolvet:acquire state
func (w *Worker) JoinAcquire() (*Task, bool) { return w.joinAcquire() }

// BatchPrepPrivate returns a window of up to n free private
// descriptors for a batch spawn (SpawnN), or nil when batching must
// fall back to one-at-a-time spawns: the trip wire is pending, the
// next slot is public or the stack is full, or tracing is active. The
// caller fills descriptors [0, k) of the window (Task.Set1 and
// friends) and commits them with BatchCommitPrivate(k). Owner only.
//
// woolvet:inline
// woolvet:acquire state
func (w *Worker) BatchPrepPrivate(n int) []Task {
	if !w.genFast || w.morePublic.Load() || int64(w.top) < w.pubShadow {
		return nil
	}
	free := len(w.tasks) - w.top
	if free <= 0 {
		return nil
	}
	if n > free {
		n = free
	}
	return w.tasks[w.top : w.top+n]
}

// BatchCommitPrivate completes a batch spawn: mark the first k
// descriptors of the BatchPrepPrivate window private and advance top
// over them. One bounds check and one stats bump amortize over the
// whole batch. Owner only.
//
// woolvet:inline
// woolvet:release state
func (w *Worker) BatchCommitPrivate(k int) {
	for j := 0; j < k; j++ {
		w.tasks[w.top+j].priv = true
	}
	w.top += k
	w.stats.Spawns += int64(k)
}
