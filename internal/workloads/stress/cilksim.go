package stress

import "gowool/internal/sim"

// The paper's Section I-a spawn loop as a continuation state machine
// for the steal-parent simulator (sim.RunCilkSim), whose task pool
// stays constant-size. The stress tree itself runs there through the
// workload table (workloads.Workload.Cilk).

// spawnLoopFrame is the paper's Section I-a example:
//
//	for (; p != NULL; p = p->next) spawn foo(p);
//	sync;
//
// under steal-parent the pool holds at most one continuation.
type spawnLoopFrame struct {
	sim.CFrame
	i, n  int64
	iters int64
	sink  int64
	hits  *int64
}

type spawnLoopLeaf struct {
	sim.CFrame
	iters int64
	hits  *int64
}

func (l *spawnLoopLeaf) step0(w *sim.CW) sim.CStep {
	w.Work(uint64(l.iters) * CyclesPerIter)
	*l.hits++
	return w.Return(&l.CFrame)
}

func (f *spawnLoopFrame) loop(w *sim.CW) sim.CStep {
	if f.i >= f.n {
		return w.Sync(&f.CFrame, f.after)
	}
	f.i++
	child := &spawnLoopLeaf{iters: f.iters, hits: f.hits}
	sim.NewCChild(&f.CFrame, &child.CFrame)
	return w.Spawn(&f.CFrame, f.loop, child.step0)
}

func (f *spawnLoopFrame) after(w *sim.CW) sim.CStep {
	return w.Return(&f.CFrame)
}

// RunCilkSimSpawnLoop runs the spawn-loop example: n leaf spawns from
// one loop, then a sync. Returns leaves run and the run's result
// (whose MaxDeque exhibits the constant-space property on one
// processor).
func RunCilkSimSpawnLoop(cfg sim.Config, n, iters int64) (int64, sim.CResult) {
	var hits int64
	res := sim.RunCilkSim(cfg, func(w *sim.CW) sim.CStep {
		root := &spawnLoopFrame{n: n, iters: iters, hits: &hits}
		return root.loop
	})
	return hits, res
}
