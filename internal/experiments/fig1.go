package experiments

import (
	"fmt"
	"io"

	"gowool/internal/tabulate"
	"gowool/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Paper: "Figure 1",
		Title: "Speedup of fib (no cutoff, absolute) and stress(4096,3,reps) (relative)",
		Run:   runFig1,
	})
}

// runFig1 reproduces Figure 1. Left: absolute speedup (against the
// pure sequential work) of no-cutoff fib on the four systems — the
// per-task overheads of the baselines exceed fib's 13-cycle tasks so
// badly that their curves sit near (or below) 1 while Wool climbs.
// Right: relative speedup of stress with 4096-iteration leaves and
// height-3 trees — regions so small that load-balancing overhead can
// make added processors a net loss.
func runFig1(sc Scale, w io.Writer) error {
	procs := procsFor(sc)

	// Left: fib.
	fibN := int64(22)
	if sc == Full {
		fibN = 27
	}
	wl := workload("fib", workloads.Params{N: fibN})
	span := serialWork(wl.Root())
	left := tabulate.NewPlot("Figure 1 (left) — absolute speedup of fib("+wl.Params+"), no cutoff",
		"procs", "absolute speedup", floatProcs(procs))
	for _, sys := range Systems() {
		left.Add(sys.Name, speedups(sys.run, wl, procs, float64(span.Work)))
	}
	left.Render(w)

	// Right: stress(4096, height 3, many repetitions).
	reps := int64(256)
	if sc == Full {
		reps = 2048 // paper: 128K
	}
	swl := workload("stress", workloads.Params{Height: 3, Iters: 4096, Reps: reps})
	right := tabulate.NewPlot(
		fmt.Sprintf("Figure 1 (right) — relative speedup of stress(4096,3,%d reps)", swl.Reps),
		"procs", "speedup vs own 1-proc", floatProcs(procs))
	for _, sys := range Systems() {
		t1 := float64(sys.run(1, swl.Root()).Makespan)
		right.Add(sys.Name, speedups(sys.run, swl, procs, t1))
	}
	right.Render(w)
	return nil
}
