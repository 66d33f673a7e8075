// Package experiments regenerates every table and figure of the
// paper's evaluation (Section IV). Each experiment renders the same
// rows/series the paper reports; EXPERIMENTS.md records the measured
// values next to the paper's. Multi-processor results come from the
// virtual-time simulator (internal/sim) standing in for the paper's
// 8-core Opteron; single-processor overhead measurements (Table II and
// the inlined column of Table III) additionally run natively.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"gowool/internal/costmodel"
	"gowool/internal/sim"
)

// Scale selects the input sizes: Quick is for tests (all twelve
// experiments in 12-16 s of `go test ./internal/experiments` on a
// 2-vCPU host, go1.24); Full is the paper-shape reproduction run by
// cmd/woolbench (minutes).
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// ParseScale converts a flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	default:
		return Quick, fmt.Errorf("unknown scale %q (want quick or full)", s)
	}
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string // harness id: "table1".."table4", "fig1", "fig4".."fig6"
	Paper string // the artifact in the paper
	Title string
	Run   func(sc Scale, w io.Writer) error
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// All returns the experiments in presentation order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// System is one of the four schedulers the paper compares, mapped to a
// simulator protocol and cost profile.
type System struct {
	Name    string
	Kind    sim.Kind
	Strat   sim.LockStrategy
	Costs   costmodel.Profile
	Private bool
}

// Systems returns the paper's four systems in its presentation order:
// Wool (direct task stack + private tasks), Cilk++ (lock-based
// steal costs), TBB (deque), OpenMP (central pool).
func Systems() []System {
	return []System{
		{Name: "Wool", Kind: sim.KindDirectStack, Costs: costmodel.Wool(), Private: true},
		{Name: "Cilk++", Kind: sim.KindLock, Strat: sim.LockBase, Costs: costmodel.CilkPP()},
		{Name: "TBB", Kind: sim.KindDeque, Costs: costmodel.TBB()},
		{Name: "OpenMP", Kind: sim.KindCentral, Costs: costmodel.OpenMP()},
	}
}

// run executes root for system s at p processors. The Wool
// private-task parameters are a bit more generous than the library
// defaults: a balanced tree needs about one public descriptor per
// level to feed the machine promptly (Section III-B: "if the task tree
// is balanced, fewer public task descriptors suffice... very
// unbalanced trees require more"), and an owner deep in a coarse leaf
// cannot answer the trip wire until its next task operation.
func (s System) run(p int, root sim.Root) sim.Result {
	c := sim.Config{
		Procs:         p,
		Kind:          s.Kind,
		LockStrategy:  s.Strat,
		Costs:         s.Costs,
		PrivateTasks:  s.Private,
		InitialPublic: 4,
		TripDistance:  2,
		PublishAmount: 4,
		Seed:          0x5eed + uint64(p)*977,
	}
	return sim.Run(c, root)
}

// speedups returns base/makespan of run on a fresh root of wl at each
// of procs.
func speedups(run func(int, sim.Root) sim.Result, wl Workload, procs []int, base float64) []float64 {
	vals := make([]float64, len(procs))
	for i, p := range procs {
		vals[i] = base / float64(run(p, wl.Root()).Makespan)
	}
	return vals
}

// serialWork measures T_S: the pure application work of root in
// cycles, from a single-processor run under a zero-overhead profile
// with span tracking (Work counts only Work() charges).
func serialWork(root sim.Root) sim.Result {
	return sim.Run(sim.Config{
		Procs: 1, Kind: sim.KindDirectStack,
		Costs:     costmodel.Profile{Name: "zero"},
		TrackSpan: true,
	}, root)
}

// Characterize measures a workload's Table I row, each run on a fresh
// root from root: serialWork's run (Work is T_S, Span0 and SpanO the
// spans at overhead 0 and 2000 cycles, Total.Spawns is N_T), and the
// steals of a Wool run at each of procs.
func Characterize(root func() sim.Root, procs []int) (serial sim.Result, steals []int64) {
	serial = serialWork(root())
	wool := Systems()[0]
	for _, p := range procs {
		steals = append(steals, wool.run(p, root()).Total.Steals)
	}
	return serial, steals
}

// procsFor returns the processor counts plotted at this scale.
func procsFor(sc Scale) []int {
	if sc == Quick {
		return []int{1, 2, 4, 8}
	}
	return []int{1, 2, 3, 4, 5, 6, 7, 8}
}

func floatProcs(ps []int) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = float64(p)
	}
	return out
}
