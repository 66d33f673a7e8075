package cholesky

import (
	"gowool/internal/sim"
)

// Simulated factorization: the generic body of sched.go instantiated
// on the virtual-time machine. The dense kernels run for real (so
// results stay verifiable) and charge their calibrated cycle costs;
// everything above them is simulated scheduling.

// SimSched is the factorization on the simulator.
type SimSched struct {
	*Sched[*sim.W, *sim.TaskDefC3[Arena]]
}

// NewSim builds the simulated task definitions.
func NewSim() SimSched {
	s := New(sim.DefineC3[Arena])
	s.cycles = (*sim.W).Work
	return SimSched{s}
}

// RootDef returns a task definition that factors the Ctx matrix — the
// entry point handed to sim.Run.
func (s SimSched) RootDef() *sim.Def {
	d := &sim.Def{Name: "cholesky"}
	d.F = func(w *sim.W, a sim.Args) int64 {
		m := a.Ctx.(*Matrix)
		m.Root = s.chol(w, m.Ar, m.Root, m.Ar.Size)
		return int64(m.Ar.NodesInUse())
	}
	return d
}

// RepsDef returns a definition running A0 serialized factorizations of
// freshly generated matrices (n = A1, nonzeros = A2, seed = A3) — the
// repeated-kernel structure of the paper's measurements. Generation
// happens at zero virtual cost between repetitions, like a benchmark
// harness resetting state outside the timed kernel, so RepSz matches
// the factorization work alone.
func (s SimSched) RepsDef() *sim.Def {
	d := &sim.Def{Name: "cholesky-reps"}
	d.F = func(w *sim.W, a sim.Args) int64 {
		var total int64
		for r := int64(0); r < a.A0; r++ {
			m := Generate(a.A1, a.A2, uint64(a.A3)+uint64(r)*977)
			m.Root = s.chol(w, m.Ar, m.Root, m.Ar.Size)
			total += m.Ar.NodesInUse()
		}
		return total
	}
	return d
}
