package fibw_test

import (
	"testing"

	"gowool/internal/costmodel"
	"gowool/internal/sim"
	"gowool/internal/workloads"
	"gowool/internal/workloads/fibw"
)

// cilkFib runs the workload table's fib(n) under steal-parent
// simulation.
func cilkFib(t *testing.T, cfg sim.Config, n int64) (int64, sim.Result) {
	t.Helper()
	v, res, ok := workloads.MustLookup("fib").Cilk(cfg, workloads.Params{N: n})
	if !ok {
		t.Fatal("fib has no steal-parent run")
	}
	return v, res
}

func TestCilkSimFibValues(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		cfg := sim.Config{Procs: procs, Costs: costmodel.CilkPP(), Seed: 7}
		got, res := cilkFib(t, cfg, 15)
		if want := fibw.Serial(15); got != want {
			t.Errorf("procs=%d: fib = %d, want %d", procs, got, want)
		}
		if res.Makespan == 0 {
			t.Errorf("procs=%d: zero makespan", procs)
		}
		// The repetition driver spawns the one tree.
		if res.Total.Spawns != 2*fibw.Tasks(15)+1 {
			t.Errorf("procs=%d: spawns = %d, want %d (two per internal node, one for the tree)",
				procs, res.Total.Spawns, 2*fibw.Tasks(15)+1)
		}
	}
}

func TestCilkSimDeterministic(t *testing.T) {
	cfg := sim.Config{Procs: 8, Costs: costmodel.CilkPP(), Seed: 99}
	_, a := cilkFib(t, cfg, 14)
	_, b := cilkFib(t, cfg, 14)
	if a.Makespan != b.Makespan || a.Total.Steals != b.Total.Steals {
		t.Errorf("replay diverged: %d/%d vs %d/%d",
			a.Makespan, a.Total.Steals, b.Makespan, b.Total.Steals)
	}
}

func TestCilkSimSpeedupOnCoarseWork(t *testing.T) {
	// Steal-parent must parallelize too; fib's tiny tasks won't show
	// absolute speedup under Cilk++ costs, so compare its own scaling.
	cfg1 := sim.Config{Procs: 1, Costs: costmodel.CilkPP()}
	cfg8 := sim.Config{Procs: 8, Costs: costmodel.CilkPP()}
	_, r1 := cilkFib(t, cfg1, 18)
	_, r8 := cilkFib(t, cfg8, 18)
	if sp := float64(r1.Makespan) / float64(r8.Makespan); sp < 1.5 {
		t.Errorf("8-proc relative speedup = %.2f, want >= 1.5", sp)
	}
}
