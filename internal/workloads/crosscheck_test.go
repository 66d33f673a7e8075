// Package workloads_test cross-validates every workload on every
// registered scheduler through the internal/sched registry: each
// workload body is written once as a Job and must compute results
// identical to the serial reference on every backend, under
// concurrency. (The per-scheduler cholesky instantiations are checked
// in internal/sched's conformance suite, where the concrete scheduler
// packages are in scope.)
package workloads_test

import (
	"math"
	"runtime"
	"testing"

	"gowool/internal/sched"
	"gowool/internal/workloads/mm"
	"gowool/internal/workloads/ssf"
	"gowool/internal/workloads/stress"
)

// optionSets is the pool configurations a range workload runs under on
// scheduler s: three public-task workers, and four workers with private
// tasks where s implements them.
func optionSets(s *sched.Scheduler) []sched.Options {
	sets := []sched.Options{{Workers: 3}}
	if s.Caps().PrivateTasks {
		sets = append(sets, sched.Options{Workers: 4, PrivateTasks: true})
	}
	return sets
}

func TestMMAllSchedulers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const n = 48
	want := func() []float64 {
		m := mm.New(n)
		mm.Serial(m)
		return m.C
	}()

	for _, s := range sched.All() {
		t.Run(s.Name(), func(t *testing.T) {
			for _, o := range optionSets(s) {
				m := mm.New(n)
				p := s.NewPool(o)
				rows := p.RunRange(mm.Job(m, 1))
				p.Close()
				if rows != n {
					t.Fatalf("workers=%d private=%v: rows computed = %d, want %d", o.Workers, o.PrivateTasks, rows, n)
				}
				for i := range m.C {
					if math.Abs(m.C[i]-want[i]) > 1e-9 {
						t.Fatalf("workers=%d private=%v: C[%d] = %g, want %g", o.Workers, o.PrivateTasks, i, m.C[i], want[i])
					}
				}
			}
		})
	}
}

func TestSSFAllSchedulers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	s := ssf.FibString(11)
	want := ssf.Serial(s, nil)
	serialOut := make([]int64, len(s))
	ssf.Serial(s, serialOut)

	for _, sc := range sched.All() {
		t.Run(sc.Name(), func(t *testing.T) {
			for _, o := range optionSets(sc) {
				wk := &ssf.Work{S: s, Out: make([]int64, len(s))}
				p := sc.NewPool(o)
				got := p.RunRange(ssf.Job(wk, 1))
				p.Close()
				if got != want {
					t.Fatalf("workers=%d private=%v: checksum = %d, want %d", o.Workers, o.PrivateTasks, got, want)
				}
				for i := range serialOut {
					if wk.Out[i] != serialOut[i] {
						t.Fatalf("workers=%d private=%v: out[%d] = %d, want %d", o.Workers, o.PrivateTasks, i, wk.Out[i], serialOut[i])
					}
				}
			}
		})
	}
}

func TestStressAllSchedulers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const height, iters, reps = 6, 64, 5
	want := stress.SerialReps(height, iters, reps)

	for _, s := range sched.All() {
		t.Run(s.Name(), func(t *testing.T) {
			p := s.NewPool(sched.Options{Workers: 3})
			defer p.Close()
			if got := p.RunRec(stress.Job(height, iters, reps)); got != want {
				t.Fatalf("leaves = %d, want %d", got, want)
			}
		})
	}
}
