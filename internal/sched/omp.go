package sched

import "gowool/internal/ompstyle"

// The centralized OpenMP-style pool's ports. Faithful to how the
// paper's OpenMP versions are written, RunRange uses the work-sharing
// loop (ParallelFor) rather than a task tree — static schedule for
// regular ranges, dynamic for irregular ones — and RunRec uses tasks
// with taskwait.

// ompRec is the task-recursive body: spawn one child task, compute the
// other branch inline, taskwait — how the paper's OpenMP fib is
// written.
func ompRec(tc *ompstyle.Context, j *RecJob, n int64) int64 {
	if v, ok := j.Leaf(n); ok {
		return v
	}
	first, second := j.Split(n)
	var a int64
	tc.SpawnTask(func(tc2 *ompstyle.Context) { a = ompRec(tc2, j, second) })
	b := ompRec(tc, j, first)
	tc.Taskwait()
	return a + b
}

func ompRunRec(p *ompstyle.Pool, j RecJob) int64 {
	return p.Run(func(tc *ompstyle.Context) int64 {
		var total int64
		for r := int64(0); r < reps(j.Reps); r++ {
			total += ompRec(tc, &j, j.Root)
		}
		return total
	})
}

func ompRunRange(p *ompstyle.Pool, j RangeJob) int64 {
	out := make([]int64, j.N)
	return p.Run(func(tc *ompstyle.Context) int64 {
		schedule, chunk := ompstyle.Static, int64(0)
		if j.Irregular {
			schedule, chunk = ompstyle.Dynamic, 4
		}
		var total int64
		for r := int64(0); r < reps(j.Reps); r++ {
			tc.ParallelFor(0, j.N, schedule, chunk, func(i int64) { out[i] = j.Leaf(i) })
			for _, v := range out {
				total += v
			}
		}
		return total
	})
}
