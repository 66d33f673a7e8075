// Package ssf is the paper's Sub String Finder benchmark, based on the
// example from the TBB distribution: for each position in a string,
// find the longest substring starting there that also occurs starting
// at some other position. The string is the Fibonacci word
// s_n = s_{n-1} s_{n-2}, s_0 = "a", s_1 = "b", with n the workload
// parameter — highly self-similar, so match lengths (and hence
// per-position work) vary wildly, giving the irregular profile the
// benchmark exists to exercise.
package ssf

import (
	"gowool/internal/sched"
	"gowool/internal/sim"
)

// FibString returns s_n of the Fibonacci word recurrence.
func FibString(n int64) string {
	a, b := "a", "b"
	if n == 0 {
		return a
	}
	for i := int64(1); i < n; i++ {
		a, b = b, b+a
	}
	return b
}

// matchLen returns the length of the common prefix of s[i:] and s[j:].
func matchLen(s string, i, j int64) int64 {
	n := int64(len(s))
	var k int64
	for i+k < n && j+k < n && s[i+k] == s[j+k] {
		k++
	}
	return k
}

// Position computes the longest match for position i against all other
// positions, returning (bestLength, comparisons): comparisons counts
// the inner-loop work for the simulator's cost model.
func Position(s string, i int64) (best, comparisons int64) {
	n := int64(len(s))
	for j := int64(0); j < n; j++ {
		if j == i {
			continue
		}
		k := matchLen(s, i, j)
		comparisons += k + 1
		if k > best {
			best = k
		}
	}
	return best, comparisons
}

// Serial computes the per-position results with no task constructs,
// returning the sum of the best match lengths (a checksum the parallel
// versions must reproduce).
func Serial(s string, out []int64) int64 {
	var sum int64
	for i := int64(0); i < int64(len(s)); i++ {
		best, _ := Position(s, i)
		if out != nil {
			out[i] = best
		}
		sum += best
	}
	return sum
}

// Work holds the string and output shared by the parallel versions.
type Work struct {
	S   string
	Out []int64
}

// Job returns the scan as a generic RangeJob over positions. Irregular
// is set: per-position work varies wildly, so the OpenMP row uses
// a dynamic work-sharing schedule, as the paper's OpenMP version does.
func Job(wk *Work, reps int64) sched.RangeJob {
	return sched.RangeJob{
		Name:      "ssf-range",
		N:         int64(len(wk.S)),
		Reps:      reps,
		Irregular: true,
		Leaf: func(i int64) int64 {
			best, _ := Position(wk.S, i)
			if wk.Out != nil {
				wk.Out[i] = best
			}
			return best
		},
	}
}

// CyclesPerComparison is the virtual cost of one inner-loop character
// comparison (load + compare + branch on cached data).
const CyclesPerComparison = 2

// NewSim builds the simulated position-range task: A0 = lo, A1 = hi,
// Ctx = *Work. The real scan runs to obtain the data-dependent work,
// which is charged at CyclesPerComparison.
func NewSim() *sim.Def {
	d := &sim.Def{Name: "ssf-range"}
	d.F = func(w *sim.W, a sim.Args) int64 {
		wk := a.Ctx.(*Work)
		lo, hi := a.A0, a.A1
		if hi-lo == 1 {
			best, comparisons := Position(wk.S, lo)
			w.Work(uint64(comparisons) * CyclesPerComparison)
			return best
		}
		mid := (lo + hi) / 2
		d.Spawn(w, sim.Args{A0: mid, A1: hi, Ctx: wk})
		x := d.Call(w, sim.Args{A0: lo, A1: mid, Ctx: wk})
		y := w.Join()
		return x + y
	}
	return d
}

// NewSimReps wraps the simulated scan in reps serialized regions:
// A0 = reps, Ctx = *Work.
func NewSimReps() *sim.Def {
	scan := NewSim()
	d := &sim.Def{Name: "ssf-reps"}
	d.F = func(w *sim.W, a sim.Args) int64 {
		wk := a.Ctx.(*Work)
		var total int64
		for r := int64(0); r < a.A0; r++ {
			total += scan.Call(w, sim.Args{A0: 0, A1: int64(len(wk.S)), Ctx: wk})
		}
		return total
	}
	return d
}
