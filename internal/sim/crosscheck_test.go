package sim_test

import (
	"testing"

	"gowool/internal/core"
	"gowool/internal/costmodel"
	"gowool/internal/sched"
	"gowool/internal/sim"
	"gowool/internal/workloads/cholesky"
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/mm"
	"gowool/internal/workloads/ssf"
	"gowool/internal/workloads/stress"
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
	type workload struct {
		name   string
		def    *sim.Def
		args   sim.Args
		native func(*sched.Pool)
	}
	workloads := []workload{
		{"fib", fibw.NewSimReps(), sim.Args{A0: 18, A1: 1},
			func(p *sched.Pool) { p.RunRec(fibw.Job(18, 1)) }},
		{"stress", stress.NewSimReps(), sim.Args{A0: 6, A1: 16, A2: 1},
			func(p *sched.Pool) { p.RunRec(stress.Job(6, 16, 1)) }},
		{"mm", mm.NewSimReps(), sim.Args{A0: 64, A1: 1},
			func(p *sched.Pool) { p.RunRange(mm.Job(mm.New(64), 1)) }},
		{"ssf", ssf.NewSimReps(), sim.Args{A0: 1, Ctx: &ssf.Work{S: ssf.FibString(12)}},
			func(p *sched.Pool) { p.RunRange(ssf.Job(&ssf.Work{S: ssf.FibString(12)}, 1)) }},
		{"cholesky", cholesky.NewSim().RepsDef(), sim.Args{A0: 1, A1: 200, A2: 800, A3: 42},
			func(p *sched.Pool) {
				cholesky.New(core.DefineC3[cholesky.Arena]).Factor(p.Native().(*core.Pool).Run, cholesky.Generate(200, 800, 42))
			}},
	}
	wool, ok := sched.Lookup("wool")
	if !ok {
		t.Fatal(`no "wool" scheduler registered`)
	}
	for _, w := range workloads {
		for _, private := range []bool{false, true} {
			p := wool.NewPool(sched.Options{Workers: 1, PrivateTasks: private})
			w.native(p)
			native := p.Stats().Counts
			p.Close()
			simulated := sim.Run(sim.Config{
				Procs: 1, Kind: sim.KindDirectStack,
				Costs: costmodel.Wool(), PrivateTasks: private,
			}, w.def, w.args).Total.Counts

			if native.Spawns == 0 {
				t.Fatalf("%s private=%v: native run spawned nothing", w.name, private)
			}
			if private {
				t.Logf("%s: inlined joins public/private: native %d/%d, sim %d/%d", w.name,
					native.JoinsInlinedPublic, native.JoinsInlinedPrivate,
					simulated.JoinsInlinedPublic, simulated.JoinsInlinedPrivate)
				native, simulated = mergeSplit(native), mergeSplit(simulated)
			}
			if native != simulated {
				t.Errorf("%s private=%v:\nnative %+v\nsim    %+v", w.name, private, native, simulated)
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
