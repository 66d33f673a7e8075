package experiments

import (
	"io"

	"gowool/internal/tabulate"
)

func init() {
	register(Experiment{
		ID:    "table1",
		Paper: "Table I",
		Title: "Workload characteristics: parallelism, RepSz, task and load-balancing granularity",
		Run:   runTable1,
	})
}

// runTable1 reproduces Table I: for every workload in the catalog,
// the average parallelism under the abstract (overhead 0) and
// realistic (overhead 2000 cycles) models, the per-repetition
// sequential work (RepSz, kilocycles), the task granularity
// G_T = T_S/N_T (cycles) and the load-balancing granularity
// G_L(p) = T_S/N_M (kilocycles) for p = 2..8 measured from Wool runs,
// exactly as the paper does.
func runTable1(sc Scale, w io.Writer) error {
	t := tabulate.New(
		"Table I — workload characteristics",
		"workload", "reps", "par(0)", "par(2k)", "RepSz[kcyc]", "G_T[cyc]",
		"G_L(2)", "G_L(3)", "G_L(4)", "G_L(5)", "G_L(6)", "G_L(7)", "G_L(8)",
	)
	procs := []int{2, 3, 4, 5, 6, 7, 8}
	for _, wl := range Catalog(sc) {
		span, steals := Characterize(wl.Root, procs)
		work := float64(span.Work)
		par0 := work / float64(span.Span0)
		parO := work / float64(span.SpanO)
		repSz := work / float64(wl.Reps) / 1000
		gt := work / float64(span.Total.Spawns)

		row := []any{wl.Name(), wl.Reps, par0, parO, repSz, gt}
		for _, steals := range steals {
			if steals == 0 {
				row = append(row, "inf")
				continue
			}
			row = append(row, work/float64(steals)/1000)
		}
		t.Row(row...)
	}
	t.Note("par(0)/par(2k): T1/T∞ with load-balancing overhead 0 and 2000 cycles")
	t.Note("G_L(p): kilocycles of work per steal in Wool runs at p processors")
	t.Render(w)
	return nil
}
