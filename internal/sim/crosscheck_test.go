package sim_test

import (
	"testing"

	"gowool/internal/costmodel"
	"gowool/internal/sched"
	"gowool/internal/sim"
	"gowool/internal/workloads"
	"gowool/internal/wskit"
)

// TestCountsMatchCoreAtOneWorker cross-checks the protocol's two
// implementations: each paper workload runs on the simulator at one
// processor and natively on core at one worker, with the same options,
// and the two wskit.Counts must agree. One worker is where the native
// counts are deterministic. With private tasks on, the public/private
// split of inlined joins is left out (it differs: the simulator keeps
// a public prefix that a one-worker pool does not), but the sum must
// agree.
func TestCountsMatchCoreAtOneWorker(t *testing.T) {
	inputs := []struct {
		name string
		in   workloads.Params
	}{
		{"fib", workloads.Params{N: 18}},
		{"stress", workloads.Params{Height: 6, Iters: 16}},
		{"mm", workloads.Params{N: 64}},
		{"ssf", workloads.Params{N: 12}},
		{"cholesky", workloads.Params{N: 200, NZ: 800}},
		// Two repetitions factor two generated matrices: both machines
		// must seed them alike.
		{"cholesky", workloads.Params{N: 300, NZ: 100, Reps: 2}},
	}
	covered := map[string]bool{}
	for _, c := range inputs {
		covered[c.name] = true
	}
	for _, name := range workloads.Names() {
		if !covered[name] {
			t.Fatalf("no inputs for table workload %q", name)
		}
	}
	wool, ok := sched.Lookup("wool")
	if !ok {
		t.Fatal(`no "wool" scheduler registered`)
	}
	for _, c := range inputs {
		w, in := workloads.MustLookup(c.name), c.in
		for _, private := range []bool{false, true} {
			p := wool.NewPool(sched.Options{Workers: 1, PrivateTasks: private})
			if _, err := w.Native(p, in); err != nil {
				t.Fatal(err)
			}
			native := p.Stats().Counts
			p.Close()
			simulated := sim.Run(sim.Config{
				Procs: 1, Kind: sim.KindDirectStack,
				Costs: costmodel.Wool(), PrivateTasks: private,
			}, w.Sim(in)).Total.Counts

			if native.Spawns == 0 {
				t.Fatalf("%s private=%v: native run spawned nothing", w.Name(), private)
			}
			if private {
				t.Logf("%s: inlined joins public/private: native %d/%d, sim %d/%d", w.Name(),
					native.JoinsInlinedPublic, native.JoinsInlinedPrivate,
					simulated.JoinsInlinedPublic, simulated.JoinsInlinedPrivate)
				native, simulated = mergeSplit(native), mergeSplit(simulated)
			}
			if native != simulated {
				t.Errorf("%s private=%v:\nnative %+v\nsim    %+v", w.Name(), private, native, simulated)
			}
		}
	}
}

// mergeSplit moves the private inlined joins into the public count, so
// that two Counts compare on their sum alone.
func mergeSplit(c wskit.Counts) wskit.Counts {
	c.JoinsInlinedPublic, c.JoinsInlinedPrivate = c.JoinsInlined(), 0
	return c
}
