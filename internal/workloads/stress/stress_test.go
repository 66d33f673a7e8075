package stress_test

import (
	"runtime"
	"testing"

	"gowool/internal/core"
	"gowool/internal/costmodel"
	"gowool/internal/sim"
	"gowool/internal/workloads"
	"gowool/internal/workloads/stress"
)

// table is the workload table's stress row.
var table = workloads.MustLookup("stress")

func TestSerialCountsLeaves(t *testing.T) {
	if got := stress.Serial(5, 16); got != 32 {
		t.Errorf("Serial(5) = %d leaves, want 32", got)
	}
	if got := stress.SerialReps(3, 16, 10); got != 80 {
		t.Errorf("SerialReps = %d, want 80", got)
	}
}

func TestWoolMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := core.NewPool(core.Options{Workers: 4, PrivateTasks: true})
	defer p.Close()
	tree := stress.NewWool()
	if got := stress.RunWool(p, tree, 7, 256, 20); got != 20*128 {
		t.Errorf("wool: %d, want %d", got, 20*128)
	}
}

func TestSimLeafWorkCharged(t *testing.T) {
	res := sim.Run(sim.Config{Procs: 1, Kind: sim.KindDirectStack, Costs: costmodel.Wool(),
		TrackSpan: true}, table.Sim(workloads.Params{Height: 6, Iters: 256}))
	if res.Value != 64 {
		t.Fatalf("leaves = %d, want 64", res.Value)
	}
	wantWork := uint64(64 * 256 * stress.CyclesPerIter)
	if res.Work != wantWork {
		t.Errorf("work = %d, want %d", res.Work, wantWork)
	}
	// The paper quotes 512-cycle leaves for 256 iterations.
	if leaf := res.Work / 64; leaf != 512 {
		t.Errorf("leaf cost = %d cycles, want 512", leaf)
	}
}

func TestSimRepsSerializeRegions(t *testing.T) {
	res := sim.Run(sim.Config{Procs: 8, Kind: sim.KindDirectStack, Costs: costmodel.Wool()},
		table.Sim(workloads.Params{Height: 3, Iters: 4096, Reps: 50}))
	if res.Value != 50*8 {
		t.Fatalf("leaves = %d, want 400", res.Value)
	}
	// Each region is only 8 leaves: at 8 procs the steals per region
	// must be bounded by the region's task count.
	if res.Total.Steals > 50*7 {
		t.Errorf("steals = %d, want <= %d (bounded by tasks per region)", res.Total.Steals, 50*7)
	}
}

func TestSpinLeafScalesLinearly(t *testing.T) {
	if stress.SpinLeaf(0) != 1 || stress.SpinLeaf(100000) != 1 {
		t.Error("SpinLeaf result wrong")
	}
}

func TestCilkSimTreeMatchesSerial(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		cfg := sim.Config{Procs: procs, Costs: costmodel.CilkPP(), Seed: 5}
		got, _, _ := table.Cilk(cfg, workloads.Params{Height: 6, Iters: 256, Reps: 10})
		if want := int64(10 * 64); got != want {
			t.Errorf("procs=%d: leaves = %d, want %d", procs, got, want)
		}
	}
}
