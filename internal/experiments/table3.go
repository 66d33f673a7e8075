package experiments

import (
	"io"

	"gowool/internal/costmodel"
	"gowool/internal/tabulate"
	"gowool/internal/workloads"
	"gowool/internal/workloads/stress"
)

func init() {
	register(Experiment{
		ID:    "table3",
		Paper: "Table III",
		Title: "Costs of inlined and stolen tasks",
		Run:   runTable3,
	})
}

// stealLeafCycles is the sequential computation C of the Podobas
// microbenchmark (paper Section IV-D1): big enough that steal costs
// are the signal, small enough that growth is visible.
const stealLeafCycles = 200_000

// stealOverhead runs the Podobas et al. methodology on the simulator:
// a binary tree of height k whose 2^k leaves each run C cycles, on
// 2^k processors; the load-balancing overhead is the difference to
// running C once on one processor.
func stealOverhead(sys System, k int) float64 {
	procs := 1 << k
	iters := int64(stealLeafCycles / stress.CyclesPerIter)
	res := sys.run(procs, workload("stress", workloads.Params{Height: int64(k), Iters: iters}).Root())
	return float64(res.Makespan) - stealLeafCycles
}

// runTable3 reproduces Table III. The "inlined" column is measured
// natively (single worker, fib methodology of Table II) for this
// repository's schedulers, with the paper's cycle figures and the
// simulator's calibrated model alongside; Cilk++ has no native
// stand-in, so its native cell prints "-". The steal columns (2, 4, 8
// processors) run the Podobas microbenchmark on the simulator, where
// the 2-processor point is calibrated from the paper and the growth
// to 4 and 8 comes from victim search, contention and coherence.
func runTable3(sc Scale, w io.Writer) error {
	n := int64(23)
	reps := 3
	if sc == Full {
		n, reps = 28, 5
	}

	t := tabulate.New(
		"Table III — costs (cycles) of inlined and stolen tasks",
		"system", "inlined[native cyc]", "inlined[model cyc]", "steal@2", "steal@4", "steal@8",
	)

	type rowSpec struct {
		name   string
		runner func() (func(int64) int64, func()) // nil: no native stand-in
		sys    System
		paper  string
	}
	systems := Systems()
	woolPrivate := func() (func(int64) int64, func()) { return woolFibRunner(true) }
	woolPublic := func() (func(int64) int64, func()) { return woolFibRunner(false) }
	onRegistry := func(name string) func() (func(int64) int64, func()) {
		return func() (func(int64) int64, func()) { return registryFibRunner(name) }
	}
	rows := []rowSpec{
		{"Wool (private)", woolPrivate, systems[0], "3"},
		{"Wool (public)", woolPublic, systems[0], "19"},
		{"Cilk++ (lock-based)", nil, systems[1], "134"},
		{"TBB (deque)", onRegistry("chaselev"), systems[2], "323"},
		{"OpenMP (central)", onRegistry("omp"), systems[3], "878"},
	}
	for i, r := range rows {
		nEff := n
		if r.name == "OpenMP (central)" {
			nEff = n - 6 // the central pool is orders slower per task
		}
		var native any = "-"
		if r.runner != nil {
			run, closer := r.runner()
			native = nativeFibOverheadNS(nEff, reps, run) * costmodel.CyclesPerNS
			closer()
		}

		model := float64(r.sys.Costs.InlinedOverhead())
		if r.name == "Wool (private)" {
			model = float64(r.sys.Costs.SpawnPrivate + r.sys.Costs.JoinPrivate)
		}
		s2 := stealOverhead(r.sys, 1)
		s4 := stealOverhead(r.sys, 2)
		s8 := stealOverhead(r.sys, 3)
		if i == 1 {
			// Wool appears once in the steal columns (the paper gives
			// a single Wool row with an inlined range).
			s2, s4, s8 = 0, 0, 0
		}
		if s2 == 0 && s4 == 0 && s8 == 0 {
			t.Row(r.name, native, model, "-", "-", "-")
		} else {
			t.Row(r.name, native, model, s2, s4, s8)
		}
	}
	t.Note("paper inlined: Wool 3–19, Cilk++ 134, TBB 323, OpenMP 878 cycles")
	t.Note("paper steal @2/4/8: Wool 2200/5600/10400, Cilk++ 31050/73600/110400, TBB 5800/14000/30000, OpenMP 4830/9200/20240")
	t.Note("native column measured on this host's Go schedulers (fib(%d), min of %d); model column is the simulator's calibrated per-task cost", n, reps)
	t.Note("Cilk++ has no native stand-in; the native figure of the lock-based Base rung is Table II's \"base (locks)\" row")
	t.Render(w)
	return nil
}
