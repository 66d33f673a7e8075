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
		ID:    "fig4",
		Paper: "Figure 4",
		Title: "Steal implementations: base / peek / trylock / nolock on stress (leaf 256)",
		Run:   runFig4,
	})
}

// runFig4 reproduces Figure 4: the lock-strategy ladder against the
// lock-free direct task stack, on stress with 512-cycle leaves over
// four region sizes. Moving right (larger regions) the gap closes as
// parallel slack grows and stealing becomes rarer — the paper's
// central observation about the plots.
func runFig4(sc Scale, w io.Writer) error {
	procs := procsFor(sc)
	div := int64(64) // paper reps are 64K..4K; scale down
	if sc == Quick {
		div = 512
	}
	// The paper shifts the region sizes one step from Table I: heights
	// 7..10 with reps 64K..8K.
	cfgs := []struct{ height, reps int64 }{
		{7, 65536 / div},
		{8, 32768 / div},
		{9, 16384 / div},
		{10, 8192 / div},
	}
	strategies := []struct {
		name string
		run  func(p int, root sim.Root) sim.Result
	}{
		{"base", lockStratRunner(sim.LockBase)},
		{"peek", lockStratRunner(sim.LockPeek)},
		{"trylock", lockStratRunner(sim.LockTryLock)},
		{"nolock", func(p int, root sim.Root) sim.Result {
			return sim.Run(sim.Config{Procs: p, Kind: sim.KindDirectStack,
				Costs: costmodel.Wool(), Seed: 0x5eed + uint64(p)*977, IdleBackoffCap: 256},
				root)
		}},
	}

	for _, cfg := range cfgs {
		plot := tabulate.NewPlot(
			fmt.Sprintf("Figure 4 — stress(256, height %d, %d reps)", cfg.height, cfg.reps),
			"procs", "speedup vs 1-proc nolock", floatProcs(procs))
		// As with the paper's stress plots, all strategies are
		// normalized to the single-processor direct-task-stack run, so
		// a slower single-processor baseline cannot flatter a strategy.
		wl := workload("stress", workloads.Params{Height: cfg.height, Iters: 256, Reps: cfg.reps})
		t1 := float64(strategies[3].run(1, wl.Root()).Makespan)
		for _, strat := range strategies {
			plot.Add(strat.name, speedups(strat.run, wl, procs, t1))
		}
		plot.Render(w)
	}
	return nil
}

func lockStratRunner(strat sim.LockStrategy) func(p int, root sim.Root) sim.Result {
	return func(p int, root sim.Root) sim.Result {
		return sim.Run(sim.Config{Procs: p, Kind: sim.KindLock, LockStrategy: strat,
			Costs: costmodel.LockBase(), Seed: 0x5eed + uint64(p)*977, IdleBackoffCap: 256},
			root)
	}
}
