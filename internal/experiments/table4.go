package experiments

import (
	"fmt"
	"io"

	"gowool/internal/stealmodel"
	"gowool/internal/tabulate"
	"gowool/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "table4",
		Paper: "Table IV",
		Title: "Simple steal-cost model: computed and measured speedups for mm(64)",
		Run:   runTable4,
	})
}

// runTable4 reproduces Table IV: the paper's analytical model
// T_p = C_p + (W + 2·(S_p−(p−1))·C_2)/p, instantiated for mm with
// 64×64 matrices, against the measured (simulated) speedups. The
// steal counts S_p come from Wool runs and are reused for all systems,
// as the paper does ("load balancing granularity carries over between
// similar systems").
func runTable4(sc Scale, w io.Writer) error {
	reps := int64(64)
	if sc == Full {
		reps = 512
	}
	wl := workload("mm", workloads.Params{N: 64, Reps: reps})

	procs := []int{2, 4, 8}
	span, steals := Characterize(wl.Root, procs)
	work := float64(span.Work) / float64(reps) // W per repetition
	stealsAt := map[int]float64{}
	for i, p := range procs {
		stealsAt[p] = float64(steals[i]) / float64(reps)
	}

	t := tabulate.New(
		"Table IV — steal-cost model vs measured speedup, mm(64): model (measured)",
		"system", "2", "4", "8",
	)
	for _, sys := range Systems()[:3] { // paper Table IV has Wool, Cilk++, TBB
		// Measured speedups (absolute, against pure work).
		measured := speedups(sys.run, wl, procs, float64(span.Work))
		c2 := stealOverhead(sys, 1)
		row := []any{sys.Name}
		for i, p := range procs {
			k := 0
			for 1<<k < p {
				k++
			}
			cp := stealOverhead(sys, k)
			est := stealmodel.Predict(work, stealsAt[p], c2, cp, p)
			row = append(row, fmt.Sprintf("%.1f (%.1f)", est.SpeedupP, measured[i]))
		}
		t.Row(row...)
	}
	t.Note("paper: Wool 2.0(2.2)/3.9(4.3)/7.1(6.8), Cilk++ 1.9(1.4)/2.8(2.5)/3.2(3.1), TBB 2.0(1.9)/3.7(3.4)/5.9(5.2)")
	t.Note("W = %.0f cycles/rep, steals/rep @2/4/8 = %.1f/%.1f/%.1f (from Wool, reused for all systems)",
		work, stealsAt[2], stealsAt[4], stealsAt[8])
	t.Render(w)
	return nil
}
