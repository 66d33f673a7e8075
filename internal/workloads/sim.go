package workloads

import (
	"gowool/internal/sched"
	"gowool/internal/sim"
)

// The simulated column: a row's job instantiated on the virtual-time
// machine, the same body every native row runs. A cost hook bills the
// kernels the simulator does not run: it is called after the body of a
// task returns and says how many cycles that task charges. Charging
// zero cycles is free: a processor that steps by nothing is still the
// earliest, so it keeps the token (vtime.Proc.Step).

// simRec is the simulated root of j: sched.BuildRec on sim.Define1,
// charging cost(n) after the body of n returns, run for j's
// repetitions.
func simRec(j sched.RecJob, cost func(n int64) uint64) sim.Root {
	d := sched.BuildRec(func(name string, body func(*sim.W, int64) int64) *sim.TaskDef1 {
		return sim.Define1(name, func(w *sim.W, n int64) int64 {
			v := body(w, n)
			w.Work(cost(n))
			return v
		})
	}, j)
	return sim.Reps(max(j.Reps, 1), func(w *sim.W, _ int64) int64 { return d.Call(w, j.Root) })
}

// simRange is simRec for a RangeJob, on sim.Define2: cost(lo, hi) is
// charged after the body of [lo, hi) returns.
func simRange(j sched.RangeJob, cost func(lo, hi int64) uint64) sim.Root {
	d := sched.BuildRange(func(name string, body func(*sim.W, int64, int64) int64) *sim.TaskDef2 {
		return sim.Define2(name, func(w *sim.W, lo, hi int64) int64 {
			v := body(w, lo, hi)
			w.Work(cost(lo, hi))
			return v
		})
	}, j)
	return sim.Reps(max(j.Reps, 1), func(w *sim.W, _ int64) int64 { return d.Call(w, 0, j.N) })
}

// cilkRec runs j under steal-parent simulation: a driver frame spawns
// each repetition's tree and syncs it before the next. It returns the
// summed value and the run's result.
func cilkRec(cfg sim.Config, j sched.RecJob, cost func(n int64) uint64) (int64, sim.Result) {
	var total int64
	res := sim.RunCilkSim(cfg, func(*sim.W) sim.CStep {
		reps := &cilkReps{job: &j, cost: cost, reps: max(j.Reps, 1), total: &total}
		return reps.loop
	})
	return total, res
}

// cilkReps is the repetition driver's frame.
type cilkReps struct {
	sim.CFrame
	job     *sched.RecJob
	cost    func(int64) uint64
	r, reps int64
	sub     int64
	total   *int64
}

func (f *cilkReps) loop(w *sim.W) sim.CStep {
	if f.r >= f.reps {
		return w.Return(&f.CFrame)
	}
	f.r++
	tree := &cilkNode{job: f.job, cost: f.cost, n: f.job.Root, res: &f.sub}
	sim.NewCChild(&f.CFrame, &tree.CFrame)
	return w.Spawn(&f.CFrame, f.afterTree, tree.step0)
}

func (f *cilkReps) afterTree(w *sim.W) sim.CStep {
	return w.Sync(&f.CFrame, f.accumulate)
}

func (f *cilkReps) accumulate(w *sim.W) sim.CStep {
	*f.total += f.sub
	return f.loop(w)
}

// cilkNode is the cactus-stack frame of one node of a RecJob, in the
// order a Cilk compiler produces: spawn the inline subproblem, then the
// spawned one, sync, charge the node's cycles and return the sum.
type cilkNode struct {
	sim.CFrame
	job  *sched.RecJob
	cost func(int64) uint64
	n    int64
	a, b int64
	res  *int64
}

func (f *cilkNode) step0(w *sim.W) sim.CStep {
	if v, ok := f.job.Leaf(f.n); ok {
		w.Work(f.cost(f.n))
		*f.res = v
		return w.Return(&f.CFrame)
	}
	inline, _ := f.job.Split(f.n)
	return f.spawn(w, inline, &f.a, f.step1)
}

func (f *cilkNode) step1(w *sim.W) sim.CStep {
	_, spawned := f.job.Split(f.n)
	return f.spawn(w, spawned, &f.b, f.step2)
}

// spawn starts the child frame for subproblem n, its result going to
// res, with cont as this frame's stealable continuation.
func (f *cilkNode) spawn(w *sim.W, n int64, res *int64, cont sim.CStep) sim.CStep {
	child := &cilkNode{job: f.job, cost: f.cost, n: n, res: res}
	sim.NewCChild(&f.CFrame, &child.CFrame)
	return w.Spawn(&f.CFrame, cont, child.step0)
}

func (f *cilkNode) step2(w *sim.W) sim.CStep {
	return w.Sync(&f.CFrame, f.step3)
}

func (f *cilkNode) step3(w *sim.W) sim.CStep {
	w.Work(f.cost(f.n))
	*f.res = f.a + f.b
	return w.Return(&f.CFrame)
}
