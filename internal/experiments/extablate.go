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
		ID:    "xablate",
		Paper: "extension",
		Title: "Ablations: private-task parameters and wait policy (deterministic sweeps)",
		Run:   runXAblate,
	})
}

// runXAblate sweeps the design knobs DESIGN.md §7 calls out, on the
// deterministic simulator so every cell is exactly reproducible:
//
//  1. private tasks on/off and the trip-wire publication parameters
//     (InitialPublic × PublishAmount) on a fine-grained stress run —
//     the tension between join overhead (more private = cheaper) and
//     steal latency (more public = thieves fed sooner);
//  2. the blocked-join wait policy on the simulator: the direct
//     stack's leapfrogging against the deque kind's unrestricted
//     helping. The spin policy's ablation is the native
//     BenchmarkAblationWaitPolicy (chaselev).
func runXAblate(sc Scale, w io.Writer) error {
	reps := int64(64)
	fibN := int64(21)
	if sc == Full {
		reps = 512
		fibN = 26
	}
	procs := 8

	// 1. Trip-wire parameter sweep — on fib, whose ~13-cycle tasks
	// make the public-join atomic a first-order cost, so the tension
	// between cheap joins (private) and fed thieves (public) shows.
	wl := workload("fib", workloads.Params{N: fibN})
	t := tabulate.New(
		fmt.Sprintf("Ablation — private-task parameters, fib(%d) at %d procs", fibN, procs),
		"config", "makespan[kcyc]", "steals", "publications", "private joins %",
	)
	type cfg struct {
		name            string
		private         bool
		initial, amount int
	}
	cfgs := []cfg{
		{"all public", false, 0, 0},
		{"private ip=1 pa=1", true, 1, 1},
		{"private ip=2 pa=2", true, 2, 2},
		{"private ip=4 pa=4", true, 4, 4},
		{"private ip=8 pa=8", true, 8, 8},
		{"private ip=16 pa=16", true, 16, 16},
	}
	for _, c := range cfgs {
		res := sim.Run(sim.Config{
			Procs: procs, Kind: sim.KindDirectStack, Costs: costmodel.Wool(),
			PrivateTasks: c.private, InitialPublic: c.initial, PublishAmount: c.amount,
			Seed: 0xab1a7e,
		}, wl.Root())
		privPct := 0.0
		if res.Total.Joins() > 0 {
			privPct = 100 * float64(res.Total.JoinsInlinedPrivate) / float64(res.Total.Joins())
		}
		t.Row(c.name, float64(res.Makespan)/1000, res.Total.Steals, res.Total.Publications, privPct)
	}
	t.Note("more public descriptors feed thieves sooner but pay the atomic join more often")
	t.Render(w)

	// 2. Wait-policy sweep: the direct stack with leapfrog vs the
	// deque kind's unrestricted helping, same costs, so only the
	// blocked-join behaviour differs.
	swl := workload("stress", workloads.Params{Height: 8, Iters: 256, Reps: reps})
	t2 := tabulate.New(
		fmt.Sprintf("Ablation — blocked-join policy, stress256(8)x%d at %d procs (Wool costs)", reps, procs),
		"policy", "makespan[kcyc]", "leap/help steals", "LF wait[kcyc]",
	)
	for _, pc := range []struct {
		name string
		kind sim.Kind
	}{
		{"leapfrog (direct stack)", sim.KindDirectStack},
		{"steal-anywhere (deque kind)", sim.KindDeque},
	} {
		res := sim.Run(sim.Config{
			Procs: procs, Kind: pc.kind, Costs: costmodel.Wool(), Seed: 0xab1a7e,
		}, swl.Root())
		t2.Row(pc.name, float64(res.Makespan)/1000, res.Total.LeapSteals, float64(res.Total.LF)/1000)
	}
	t2.Note("paper Fig 6: LF stays small — 'simply waiting would be adequate' for these workloads")
	t2.Render(w)
	return nil
}
