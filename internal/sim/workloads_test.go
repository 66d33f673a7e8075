package sim_test

import (
	"testing"

	"gowool/internal/costmodel"
	"gowool/internal/sim"
	"gowool/internal/workloads"
	"gowool/internal/workloads/ssf"
)

// TestPublicWindowSensitivity exercises the Section III-B trade-off
// with a deterministic sweep of the public window: for a balanced tree
// the narrowest window is sufficient for load balance (per the paper:
// "if the task tree is balanced, fewer public task descriptors
// suffice") and wide windows only add public-join cost; the irregular
// ssf scan must stay correct — and keep publishing through the trip
// wire — across the whole sweep.
func TestPublicWindowSensitivity(t *testing.T) {
	run := func(root sim.Root, ip int) sim.Result {
		return sim.Run(sim.Config{Procs: 8, Kind: sim.KindDirectStack,
			Costs: costmodel.Wool(), PrivateTasks: true,
			InitialPublic: ip, PublishAmount: ip, Seed: 31}, root)
	}
	var balanced *sim.TaskDef1
	balanced = sim.Define1("balanced", func(w *sim.W, depth int64) int64 {
		if depth == 0 {
			w.Work(180)
			return 1
		}
		balanced.Spawn(w, depth-1)
		x := balanced.Call(w, depth-1)
		y := balanced.Join(w)
		return x + y
	})
	root := func(w *sim.W) int64 { return balanced.Call(w, 12) }
	balNarrow := run(root, 1)
	balWide := run(root, 16)
	if balNarrow.Value != 4096 || balWide.Value != 4096 {
		t.Fatalf("balanced tree wrong: %d / %d", balNarrow.Value, balWide.Value)
	}
	if balNarrow.Makespan >= balWide.Makespan {
		t.Errorf("balanced tree: narrow window (%d) should beat wide (%d) — balanced trees need few public descriptors",
			balNarrow.Makespan, balWide.Makespan)
	}

	scan := workloads.MustLookup("ssf")
	want := ssf.Serial(ssf.FibString(12), nil)
	for _, ip := range []int{1, 2, 8, 16} {
		res := run(scan.Sim(workloads.Params{N: 12}), ip)
		if res.Value != want {
			t.Errorf("ssf ip=%d: %d, want %d", ip, res.Value, want)
		}
		if ip <= 2 && res.Total.Publications == 0 && res.Total.Steals > 8 {
			t.Errorf("ssf ip=%d: steals (%d) without trip-wire publications", ip, res.Total.Steals)
		}
	}
}

// TestPrivatizationsCounted checks that the simulator counts its
// public-boundary pull-downs, as core does: fib(22) on eight
// processors with private tasks runs long stretches of inlined public
// joins between steals, and each pull-down is a privatization.
func TestPrivatizationsCounted(t *testing.T) {
	res := sim.Run(sim.Config{Procs: 8, Kind: sim.KindDirectStack,
		Costs: costmodel.Wool(), PrivateTasks: true},
		workloads.MustLookup("fib").Sim(workloads.Params{N: 22}))
	if res.Total.Privatizations == 0 {
		t.Errorf("no privatizations counted: %+v", res.Total.Counts)
	}
}
