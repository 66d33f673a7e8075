package sched

// Job shapes: a workload's divide-and-conquer body, written once and
// instantiated per scheduler by its registry row (via the generic
// builders in port.go, or a backend's native construct where that is
// what the paper's version would use — work-sharing loops on the
// OpenMP-style pool, goroutines on the Go-native baseline).

// RecJob is a binary divide-and-conquer recursion over one int64
// parameter (fib, the stress tree): Leaf decides whether n is a leaf
// and computes it; Split yields the two subproblems, in the SPAWN/
// CALL/JOIN convention of the paper's Figure 2 — the first subproblem
// is called inline, the second is spawned — and the results are
// summed. State beyond the int64 (the stress leaf iteration count)
// travels by closure capture in Leaf/Split.
type RecJob struct {
	// Name labels the task definitions built from this job.
	Name string
	// Root is the argument of the root call.
	Root int64
	// Reps is the number of serialized parallel regions; 0 means 1.
	Reps int64
	// Leaf returns (value, true) when n is a leaf.
	Leaf func(n int64) (int64, bool)
	// Split returns the subproblems (inline, spawned) of an inner n.
	Split func(n int64) (inline, spawned int64)
}

// RangeJob is a reduction over an index range [0, N): each leaf
// computes Leaf(i) exactly once and the results are summed. Task-tree
// schedulers expand it as a balanced range splitter (how Wool's loop
// constructs expand); work-sharing backends run it as a parallel for —
// static schedule, or dynamic when Irregular says per-index work
// varies (the paper's mm vs ssf distinction).
type RangeJob struct {
	// Name labels the task definitions built from this job.
	Name string
	// N is the index range size.
	N int64
	// Reps is the number of serialized parallel regions; 0 means 1.
	Reps int64
	// Leaf computes index i and returns its contribution to the sum.
	Leaf func(i int64) int64
	// Irregular marks wildly varying per-index work; work-sharing
	// backends then use a dynamic schedule.
	Irregular bool
}

// reps normalizes a repetition count.
func reps(r int64) int64 {
	if r <= 0 {
		return 1
	}
	return r
}

// Serial runs the recursion with no task constructs — the conformance
// reference.
func (j RecJob) Serial() int64 {
	var rec func(n int64) int64
	rec = func(n int64) int64 {
		if v, ok := j.Leaf(n); ok {
			return v
		}
		a, b := j.Split(n)
		return rec(a) + rec(b)
	}
	var total int64
	for r := int64(0); r < reps(j.Reps); r++ {
		total += rec(j.Root)
	}
	return total
}

// Serial runs the range with no task constructs — the conformance
// reference. Leaf side effects happen once per repetition, exactly as
// in the parallel runs.
func (j RangeJob) Serial() int64 {
	var total int64
	for r := int64(0); r < reps(j.Reps); r++ {
		for i := int64(0); i < j.N; i++ {
			total += j.Leaf(i)
		}
	}
	return total
}
