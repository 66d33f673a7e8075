package fibw_test

import (
	"runtime"
	"testing"

	"gowool/internal/core"
	"gowool/internal/costmodel"
	"gowool/internal/sim"
	"gowool/internal/workloads"
	"gowool/internal/workloads/fibw"
)

// simFib is the workload table's simulated fib(n), reps times.
func simFib(n, reps int64) sim.Root {
	return workloads.MustLookup("fib").Sim(workloads.Params{N: n, Reps: reps})
}

func TestSerial(t *testing.T) {
	want := []int64{0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55}
	for n, v := range want {
		if got := fibw.Serial(int64(n)); got != v {
			t.Errorf("Serial(%d) = %d, want %d", n, got, v)
		}
	}
}

func TestTasks(t *testing.T) {
	// N_T(fib): internal nodes of the call tree.
	if got := fibw.Tasks(5); got != 7 {
		t.Errorf("Tasks(5) = %d, want 7", got)
	}
	if got := fibw.Tasks(1); got != 0 {
		t.Errorf("Tasks(1) = %d, want 0", got)
	}
}

// TestAllSchedulersAgree checks the hand-written wool ports and the
// table's simulated fib; the baselines are exercised uniformly by the registry
// conformance suite in internal/sched.
func TestAllSchedulersAgree(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const n = 18
	want := fibw.Serial(n)

	wp := core.NewPool(core.Options{Workers: 3, PrivateTasks: true})
	if got := wp.Run(func(w *core.Worker) int64 { return fibw.NewWool().Call(w, n) }); got != want {
		t.Errorf("wool: %d, want %d", got, want)
	}
	wp.Close()

	wg := core.NewPool(core.Options{Workers: 3})
	if got := wg.Run(func(w *core.Worker) int64 { return fibw.NewWoolGenericJoin().Call(w, n) }); got != want {
		t.Errorf("wool generic join: %d, want %d", got, want)
	}
	wg.Close()

	res := sim.Run(sim.Config{Procs: 4, Kind: sim.KindDirectStack, Costs: costmodel.Wool()},
		simFib(n, 1))
	if res.Value != want {
		t.Errorf("sim: %d, want %d", res.Value, want)
	}
}

// TestSimReps pins the repetition wrapper (sim.Reps): R serialized
// fib(n) regions return R·Serial(n) and spawn R·Tasks(n) tasks.
func TestSimReps(t *testing.T) {
	const n = 12
	for _, reps := range []int64{1, 4} {
		res := sim.Run(sim.Config{Procs: 2, Kind: sim.KindDirectStack, Costs: costmodel.Wool()},
			simFib(n, reps))
		if want := reps * fibw.Serial(n); res.Value != want {
			t.Errorf("reps=%d: value %d, want %d", reps, res.Value, want)
		}
		if want := reps * fibw.Tasks(n); res.Total.Spawns != want {
			t.Errorf("reps=%d: %d spawns, want %d", reps, res.Total.Spawns, want)
		}
	}
}

func TestSimGranularity(t *testing.T) {
	// G_T = work/tasks must be ≈ NodeWork (the paper's 13 cycles).
	res := sim.Run(sim.Config{Procs: 1, Kind: sim.KindDirectStack, Costs: costmodel.Wool(),
		TrackSpan: true}, simFib(20, 1))
	tasks := res.Total.Spawns
	if tasks != fibw.Tasks(20) {
		t.Fatalf("spawns = %d, want %d", tasks, fibw.Tasks(20))
	}
	gt := float64(res.Work) / float64(tasks)
	if gt < 13 || gt > 25 {
		t.Errorf("G_T = %.1f cycles/task, want ≈ 13–25", gt)
	}
}

// TestGeneratedPortAgrees runs the woolgen-generated fib port
// (fib_gen.go) on a steal-heavy pool and checks it against Serial.
func TestGeneratedPortAgrees(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := core.NewPool(core.Options{Workers: 4, PrivateTasks: true,
		InitialPublic: 1, PublishAmount: 1})
	defer p.Close()
	want := fibw.Serial(25)
	for rep := 0; rep < 5; rep++ {
		if got := p.Run(func(w *core.Worker) int64 { return fibw.CallFib(w, 25) }); got != want {
			t.Fatalf("rep %d: CallFib(25) = %d, want %d", rep, got, want)
		}
	}
}
