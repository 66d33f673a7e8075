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

// FactorOn factors m on w, the simulated worker of the calling task.
func (s SimSched) FactorOn(w *sim.W, m *Matrix) { m.Root = s.chol(w, m.Ar, m.Root, m.Ar.Size) }
