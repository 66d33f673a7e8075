package experiments

import (
	"fmt"
	"io"

	"gowool/internal/tabulate"
)

func init() {
	register(Experiment{
		ID:    "fig6",
		Paper: "Figure 6",
		Title: "Breakdown of CPU time (TR / LA / NA / ST / LF) for selected workloads",
		Run:   runFig6,
	})
}

// runFig6 reproduces Figure 6: total CPU time across all processors
// split into the paper's categories — startup/shutdown (TR; nil in
// the simulator, noted), application code acquired through
// leapfrogging (LA), other application code (NA), stealing (ST) and
// leapfrogging search (LF) — normalized to the single-processor NA.
// Growing totals mean sublinear speedup, not slowdown; the dominant
// growth sits in ST and application time, as the paper observes.
func runFig6(sc Scale, w io.Writer) error {
	// A selection mirroring the paper's panels: one config per family.
	var sel []Workload
	seen := map[string]bool{}
	for _, wl := range Catalog(sc) {
		if !seen[wl.Family] {
			seen[wl.Family] = true
			sel = append(sel, wl)
		}
	}
	wool := Systems()[0]
	procs := []int{1, 2, 4, 8}
	for _, wl := range sel {
		t := tabulate.New(
			fmt.Sprintf("Figure 6 — CPU time breakdown, %s on Wool (normalized to 1-proc NA)", wl.Name()),
			"procs", "NA", "LA", "ST", "LF", "total",
		)
		var norm float64
		for _, p := range procs {
			root, args := wl.Root()
			res := wool.run(p, root, args)
			st := res.Total
			if p == 1 {
				norm = float64(st.NA)
				if norm == 0 {
					norm = 1
				}
			}
			total := float64(st.NA+st.LA+st.ST+st.LF) / norm
			t.Row(p, float64(st.NA)/norm, float64(st.LA)/norm,
				float64(st.ST)/norm, float64(st.LF)/norm, total)
		}
		t.Note("TR (startup/shutdown) is zero in the simulator and omitted")
		t.Render(w)
	}
	return nil
}
