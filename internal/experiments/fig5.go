package experiments

import (
	"io"
	"strings"

	"gowool/internal/tabulate"
)

func init() {
	register(Experiment{
		ID:    "fig5",
		Paper: "Figure 5",
		Title: "Speedup of the fine-grained applications on all four systems",
		Run:   runFig5,
	})
}

// runFig5 reproduces Figure 5: the full speedup grid — every workload
// configuration of the catalog, all four systems, 1..8 processors.
// As in the paper, cholesky/mm/ssf report absolute speedup against the
// sequential work, while stress reports speedup relative to the
// single-processor Wool execution.
func runFig5(sc Scale, w io.Writer) error {
	procs := procsFor(sc)
	systems := Systems()
	for _, wl := range Catalog(sc) {
		relativeToWool := strings.HasPrefix(wl.Family, "stress")

		var base float64
		if relativeToWool {
			base = float64(systems[0].run(1, wl.Root()).Makespan)
		} else {
			base = float64(serialWork(wl.Root()).Work)
		}

		ylabel := "absolute speedup"
		if relativeToWool {
			ylabel = "speedup vs 1-proc Wool"
		}
		plot := tabulate.NewPlot("Figure 5 — "+wl.Name(), "procs", ylabel, floatProcs(procs))
		for _, sys := range systems {
			plot.Add(sys.Name, speedups(sys.run, wl, procs, base))
		}
		plot.Render(w)
	}
	return nil
}
