package experiments

import (
	"fmt"
	"io"

	"gowool/internal/costmodel"
	"gowool/internal/sim"
	"gowool/internal/tabulate"
	"gowool/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "xcilk",
		Paper: "extension",
		Title: "Validating the Cilk++ model: steal-child approximation vs true steal-parent execution",
		Run:   runXCilk,
	})
}

// runXCilk compares the two Cilk++ models this repository carries:
// the cost-level approximation used throughout the figure sweeps
// (steal-child order, KindLock, Cilk++ costs — see DESIGN.md §2) and
// the true continuation-stealing engine (sim.RunCilkSim), which
// executes the parent-first order a Cilk compiler produces. If the
// approximation is sound, the two produce comparable speedup curves —
// the differences that remain are the execution-order effects
// (steal-parent distributes continuations near the root, steal-child
// distributes children).
func runXCilk(sc Scale, w io.Writer) error {
	procs := procsFor(sc)
	reps := int64(64)
	if sc == Full {
		reps = 512
	}
	cfgs := []struct{ height, iters int64 }{
		{3, 4096}, // Figure 1 right's workload
		{8, 256},  // fine-grained stress
	}
	for _, c := range cfgs {
		plot := tabulate.NewPlot(
			fmt.Sprintf("Extension — Cilk++ models on stress(%d-iter leaves, height %d, %d reps)",
				c.iters, c.height, reps),
			"procs", "relative speedup", floatProcs(procs))

		// Steal-child approximation (the catalog's Cilk++).
		approx := Systems()[1]
		in := workloads.Params{Height: c.height, Iters: c.iters, Reps: reps}
		wl := workload("stress", in)
		t1 := float64(approx.run(1, wl.Root()).Makespan)
		plot.Add("steal-child approx", speedups(approx.run, wl, procs, t1))

		// True steal-parent engine, same cost profile, on the same job.
		cilk := func(cfg sim.Config) float64 {
			_, r, _ := workloads.MustLookup("stress").Cilk(cfg, in)
			return float64(r.Makespan)
		}
		cp1 := cilk(sim.Config{Procs: 1, Costs: costmodel.CilkPP(), Seed: 0x51ed})
		vals2 := make([]float64, len(procs))
		for i, p := range procs {
			vals2[i] = cp1 / cilk(sim.Config{Procs: p, Costs: costmodel.CilkPP(), Seed: 0x51ed + uint64(p)})
		}
		plot.Add("steal-parent (true)", vals2)
		plot.Render(w)
	}
	return nil
}
