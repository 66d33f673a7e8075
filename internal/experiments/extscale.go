package experiments

import (
	"io"

	"gowool/internal/tabulate"
	"gowool/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "xscale",
		Paper: "extension",
		Title: "Beyond the paper's 8 cores: the same workloads at up to 64 processors",
		Run:   runXScale,
	})
}

// runXScale extends the evaluation in the direction the paper's
// introduction motivates: "a program that appears coarse-grained on
// eight cores may well look a lot more fine-grained on sixty four."
// It runs a coarse (mm 256) and a fine (stress 256-cycle leaves)
// workload on all four systems up to 64 virtual processors, showing
// the coarse workload's cross-over into fine-grained behaviour — and
// the load-balancing granularity G_L collapsing as processors grow.
func runXScale(sc Scale, w io.Writer) error {
	procs := []int{1, 2, 4, 8, 16, 32, 64}
	if sc == Quick {
		procs = []int{1, 4, 16, 64}
	}

	for _, wl := range []Workload{
		workload("mm", workloads.Params{N: 256, Reps: 4}),
		workload("stress", workloads.Params{Height: 9, Iters: 256, Reps: 64}),
	} {
		span, steals := Characterize(wl.Root, procs[1:])

		plot := tabulate.NewPlot("Extension — "+wl.Name()+" beyond 8 processors",
			"procs", "absolute speedup", floatProcs(procs))
		systems := Systems()
		// At 64 processors the trip-wire publication rate itself can
		// bottleneck work distribution; an all-public Wool series makes
		// that private-task trade-off visible.
		woolPublic := systems[0]
		woolPublic.Name = "Wool (no private)"
		woolPublic.Private = false
		systems = append(systems, woolPublic)
		for _, sys := range systems {
			plot.Add(sys.Name, speedups(sys.run, wl, procs, float64(span.Work)))
		}
		plot.Render(w)

		// G_L shrinks as processors grow: the paper's Table I trend,
		// extended.
		t := tabulate.New("G_L(p) for "+wl.Name()+" [kcycles/steal]",
			"procs", "G_L", "steals")
		for i, p := range procs[1:] {
			if steals[i] == 0 {
				t.Row(p, "inf", 0)
				continue
			}
			t.Row(p, float64(span.Work)/float64(steals[i])/1000, steals[i])
		}
		t.Render(w)
	}
	return nil
}
