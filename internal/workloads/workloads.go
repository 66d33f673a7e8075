// Package workloads is the table of the paper's workload families
// (Table I): fib, stress, mm, ssf and cholesky. A row declares, for its
// family, the serial reference, the job on a registry pool, the
// simulated root and the names the tools print. The family packages
// hold the kernels and their cycle costs; the simulated root runs the
// row's own job body, instantiated on the simulator, with a cost hook
// charging the cycles of the kernels the simulator does not run.
// woolrun, woolstat, woolbench and the experiment catalog look a family
// up by name. Adding a family is one package and one row.
package workloads

import (
	"errors"
	"fmt"

	"gowool/internal/chaselev"
	"gowool/internal/core"
	"gowool/internal/locksched"
	"gowool/internal/sched"
	"gowool/internal/sim"
	"gowool/internal/workloads/cholesky"
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/mm"
	"gowool/internal/workloads/ssf"
	"gowool/internal/workloads/stress"
)

// Params are a workload's inputs, one field per woolrun/woolstat flag;
// a family reads the fields it needs.
type Params struct {
	N      int64 // fib n, mm rows, ssf word index, cholesky rows
	NZ     int64 // cholesky nonzeros
	Height int64 // stress tree height
	Iters  int64 // stress leaf iterations
	Reps   int64 // serialized repetitions
}

// Norm returns p under the repetition rule of sched.RecJob: fewer than
// one repetition counts as one. Every method of a Workload applies it.
func (p Params) Norm() Params {
	p.Reps = max(p.Reps, 1)
	return p
}

// Workload is one row of the table.
type Workload struct {
	name string
	// label is woolstat's title: the family, its inputs and reps.
	label func(Params) string
	// tableI is the row's family and parameter column as Table I
	// prints them ("stress256", "7").
	tableI func(Params) (family, params string)
	// serial is repetition rep of the serial reference.
	serial func(p Params, rep int64) int64
	native func(*sched.Pool, Params) (int64, error)
	// rec is a recursion family's job as the simulator runs it, with
	// the cycles its node n charges after the body returns; both
	// simulators instantiate it. Nil for the other rows.
	rec func(Params) (sched.RecJob, func(n int64) uint64)
	// sim is the simulated root of a row without rec.
	sim func(Params) sim.Root
}

// Name is the table key (also the -workload value).
func (w *Workload) Name() string { return w.name }

// Label is the title woolstat prints for the row at p.
func (w *Workload) Label(p Params) string { return w.label(p.Norm()) }

// TableI returns the family and parameter column Table I prints for the
// row at p.
func (w *Workload) TableI(p Params) (family, params string) { return w.tableI(p.Norm()) }

// Serial runs the serial reference p.Reps times and returns the summed
// result.
func (w *Workload) Serial(p Params) int64 {
	p = p.Norm()
	var total int64
	for r := range p.Reps {
		total += w.serial(p, r)
	}
	return total
}

// Native runs the workload on pool and returns the same sum as Serial.
// Its error says the pool's backend has no port for the workload.
func (w *Workload) Native(pool *sched.Pool, p Params) (int64, error) {
	return w.native(pool, p.Norm())
}

// Sim returns a fresh simulated root: runs never share mutable state.
// Its value is the same sum as Serial.
func (w *Workload) Sim(p Params) sim.Root {
	p = p.Norm()
	if w.rec != nil {
		return simRec(w.rec(p))
	}
	return w.sim(p)
}

// Cilk runs the row's job under steal-parent simulation (sim.RunCilkSim)
// and returns its value, the same sum as Serial, with the run's result.
// ok is false for a row whose job is not a recursion.
func (w *Workload) Cilk(cfg sim.Config, p Params) (value int64, res sim.Result, ok bool) {
	if w.rec == nil {
		return 0, sim.Result{}, false
	}
	j, cost := w.rec(p.Norm())
	value, res = cilkRec(cfg, j, cost)
	return value, res, true
}

// choleskySeed seeds the first repetition's generated matrix; each
// further repetition adds choleskySeedStep.
const (
	choleskySeed     = 42
	choleskySeedStep = 977
)

var table = []Workload{{
	name:   "fib",
	label:  func(p Params) string { return fmt.Sprintf("fib(%d)x%d", p.N, p.Reps) },
	tableI: func(p Params) (string, string) { return "fib", fmt.Sprint(p.N) },
	serial: func(p Params, _ int64) int64 { return fibw.Serial(p.N) },
	native: func(pool *sched.Pool, p Params) (int64, error) { return pool.RunRec(fibw.Job(p.N, p.Reps)), nil },
	rec: func(p Params) (sched.RecJob, func(int64) uint64) {
		return fibw.Job(p.N, p.Reps), fibw.SimCycles
	},
}, {
	name:   "stress",
	label:  func(p Params) string { return fmt.Sprintf("stress(h=%d,i=%d)x%d", p.Height, p.Iters, p.Reps) },
	tableI: func(p Params) (string, string) { return fmt.Sprintf("stress%d", p.Iters), fmt.Sprint(p.Height) },
	serial: func(p Params, _ int64) int64 { return stress.Serial(p.Height, p.Iters) },
	native: func(pool *sched.Pool, p Params) (int64, error) {
		return pool.RunRec(stress.Job(p.Height, p.Iters, p.Reps)), nil
	},
	// The simulator charges the leaf loop rather than spinning it:
	// SpinLeaf(0) still returns the leaf's 1.
	rec: func(p Params) (sched.RecJob, func(int64) uint64) {
		return stress.Job(p.Height, 0, p.Reps), stress.SimCycles(p.Iters)
	},
}, {
	name:   "mm",
	label:  func(p Params) string { return fmt.Sprintf("mm(%d)x%d", p.N, p.Reps) },
	tableI: func(p Params) (string, string) { return "mm", fmt.Sprint(p.N) },
	serial: func(p Params, _ int64) int64 { mm.Serial(mm.New(p.N)); return p.N },
	native: func(pool *sched.Pool, p Params) (int64, error) {
		return pool.RunRange(mm.Job(mm.New(p.N), p.Reps)), nil
	},
	// The simulator charges each row rather than multiplying it: the
	// leaf keeps only the row count the native leaf returns.
	sim: func(p Params) sim.Root {
		j := mm.Job(&mm.Matrices{N: p.N}, p.Reps)
		j.Leaf = func(int64) int64 { return 1 }
		return simRange(j, mm.SimCycles(p.N))
	},
}, {
	name:   "ssf",
	label:  func(p Params) string { return fmt.Sprintf("ssf(%d)x%d", p.N, p.Reps) },
	tableI: func(p Params) (string, string) { return "ssf", fmt.Sprint(p.N) },
	serial: func(p Params, _ int64) int64 { return ssf.Serial(ssf.FibString(p.N), nil) },
	native: func(pool *sched.Pool, p Params) (int64, error) {
		return pool.RunRange(ssf.Job(&ssf.Work{S: ssf.FibString(p.N)}, p.Reps)), nil
	},
	sim: func(p Params) sim.Root {
		s := ssf.FibString(p.N)
		wk := &ssf.Work{S: s, Comparisons: make([]int64, len(s))}
		return simRange(ssf.Job(wk, p.Reps), ssf.SimCycles(wk))
	},
}, {
	name:   "cholesky",
	label:  func(p Params) string { return fmt.Sprintf("cholesky(%d,%d)x%d", p.N, p.NZ, p.Reps) },
	tableI: func(p Params) (string, string) { return "cholesky", fmt.Sprintf("%d,%d", p.N, p.NZ) },
	serial: func(p Params, rep int64) int64 { return choleskyRep(p, rep, (*cholesky.Matrix).Factor) },
	native: choleskyNative,
	// Generating a repetition's matrix costs no virtual time, like a
	// harness resetting state outside the timed kernel, so RepSz is
	// the factorization alone.
	sim: func(p Params) sim.Root {
		sc := cholesky.NewSim()
		return sim.Reps(p.Reps, func(w *sim.W, r int64) int64 {
			return choleskyRep(p, r, func(m *cholesky.Matrix) { sc.FactorOn(w, m) })
		})
	},
}}

// choleskyRep generates repetition rep's matrix, factors it with factor
// and returns the nodes its factor uses.
func choleskyRep(p Params, rep int64, factor func(*cholesky.Matrix)) int64 {
	m := cholesky.Generate(p.N, p.NZ, choleskySeed+uint64(rep)*choleskySeedStep)
	factor(m)
	return m.Ar.NodesInUse()
}

// choleskyNative instantiates the generic factorization for backends
// that expose DefineC3-style task constructors (Caps.TaskDefs): the
// workload's irregular spawn structure doesn't fit the RunRec/RunRange
// shapes, so it reaches the concrete pool through Pool.Native.
func choleskyNative(pool *sched.Pool, p Params) (int64, error) {
	var factor func(*cholesky.Matrix)
	switch np := pool.Native().(type) {
	case *core.Pool:
		sc := cholesky.New(core.DefineC3[cholesky.Arena])
		factor = func(m *cholesky.Matrix) { sc.Factor(np.Run, m) }
	case *chaselev.Pool:
		sc := cholesky.New(chaselev.DefineC3[cholesky.Arena])
		factor = func(m *cholesky.Matrix) { sc.Factor(np.Run, m) }
	case *locksched.Pool:
		sc := cholesky.New(locksched.DefineC3[cholesky.Arena])
		factor = func(m *cholesky.Matrix) { sc.Factor(np.Run, m) }
	default:
		return 0, errors.New("cholesky needs task definitions")
	}
	var total int64
	for r := range p.Reps {
		total += choleskyRep(p, r, factor)
	}
	return total, nil
}

// Lookup finds a row by name.
func Lookup(name string) (*Workload, bool) {
	for i := range table {
		if table[i].name == name {
			return &table[i], true
		}
	}
	return nil, false
}

// MustLookup is Lookup for a name fixed in code; it panics when the
// table has no such row.
func MustLookup(name string) *Workload {
	w, ok := Lookup(name)
	if !ok {
		panic("workloads: no workload " + name)
	}
	return w
}

// Names returns the row names in presentation order.
func Names() []string {
	out := make([]string, len(table))
	for i := range table {
		out[i] = table[i].name
	}
	return out
}
