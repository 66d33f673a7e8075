package sched

import "gowool/internal/cilkstyle"

// The steal-parent continuation scheduler's ports. Its task functions
// are explicit continuation state machines, so RunRec and RunRange are
// hand-written frame recursions — the shape Cilk++'s compiler
// generates for
//
//	a = spawn f(x); b = spawn f(y); sync; return a+b;

// cilkRecFrame is the cactus-stack frame of one RecJob node: spawn
// both subproblems, sync, sum.
type cilkRecFrame struct {
	cilkstyle.Frame
	job  *RecJob
	n    int64
	a, b int64
	res  *int64
}

func (f *cilkRecFrame) step0(w *cilkstyle.Worker) cilkstyle.Step {
	if v, ok := f.job.Leaf(f.n); ok {
		*f.res = v
		return w.Return(&f.Frame)
	}
	first, _ := f.job.Split(f.n)
	child := &cilkRecFrame{job: f.job, n: first, res: &f.a}
	cilkstyle.NewChild(&f.Frame, &child.Frame)
	return w.Spawn(&f.Frame, f.step1, child.step0)
}

func (f *cilkRecFrame) step1(w *cilkstyle.Worker) cilkstyle.Step {
	_, second := f.job.Split(f.n)
	child := &cilkRecFrame{job: f.job, n: second, res: &f.b}
	cilkstyle.NewChild(&f.Frame, &child.Frame)
	return w.Spawn(&f.Frame, f.step2, child.step0)
}

func (f *cilkRecFrame) step2(w *cilkstyle.Worker) cilkstyle.Step {
	return w.Sync(&f.Frame, f.step3)
}

func (f *cilkRecFrame) step3(w *cilkstyle.Worker) cilkstyle.Step {
	*f.res = f.a + f.b
	return w.Return(&f.Frame)
}

func cilkRunRec(p *cilkstyle.Pool, j RecJob) int64 {
	var total int64
	for r := int64(0); r < reps(j.Reps); r++ {
		var res int64
		root := &cilkRecFrame{job: &j, n: j.Root, res: &res}
		p.Run(&root.Frame, root.step0)
		total += res
	}
	return total
}

// cilkRangeFrame is the frame of one balanced range-splitter node.
type cilkRangeFrame struct {
	cilkstyle.Frame
	job    *RangeJob
	lo, hi int64
	a, b   int64
	res    *int64
}

func (f *cilkRangeFrame) step0(w *cilkstyle.Worker) cilkstyle.Step {
	if f.hi-f.lo <= 1 {
		if f.hi > f.lo {
			*f.res = f.job.Leaf(f.lo)
		}
		return w.Return(&f.Frame)
	}
	mid := (f.lo + f.hi) / 2
	child := &cilkRangeFrame{job: f.job, lo: f.lo, hi: mid, res: &f.a}
	cilkstyle.NewChild(&f.Frame, &child.Frame)
	return w.Spawn(&f.Frame, f.step1, child.step0)
}

func (f *cilkRangeFrame) step1(w *cilkstyle.Worker) cilkstyle.Step {
	mid := (f.lo + f.hi) / 2
	child := &cilkRangeFrame{job: f.job, lo: mid, hi: f.hi, res: &f.b}
	cilkstyle.NewChild(&f.Frame, &child.Frame)
	return w.Spawn(&f.Frame, f.step2, child.step0)
}

func (f *cilkRangeFrame) step2(w *cilkstyle.Worker) cilkstyle.Step {
	return w.Sync(&f.Frame, f.step3)
}

func (f *cilkRangeFrame) step3(w *cilkstyle.Worker) cilkstyle.Step {
	*f.res = f.a + f.b
	return w.Return(&f.Frame)
}

func cilkRunRange(p *cilkstyle.Pool, j RangeJob) int64 {
	var total int64
	for r := int64(0); r < reps(j.Reps); r++ {
		var res int64
		root := &cilkRangeFrame{job: &j, lo: 0, hi: j.N, res: &res}
		p.Run(&root.Frame, root.step0)
		total += res
	}
	return total
}
