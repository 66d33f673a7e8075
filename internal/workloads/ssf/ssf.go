// Package ssf is the paper's Sub String Finder benchmark, based on the
// example from the TBB distribution: for each position in a string,
// find the longest substring starting there that also occurs starting
// at some other position. The string is the Fibonacci word
// s_n = s_{n-1} s_{n-2}, s_0 = "a", s_1 = "b", with n the workload
// parameter — highly self-similar, so match lengths (and hence
// per-position work) vary wildly, giving the irregular profile the
// benchmark exists to exercise.
package ssf

import "gowool/internal/sched"

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

// Work holds the string and outputs shared by the parallel versions:
// a position's best match length, and the comparisons its scan made,
// each stored where the slice is non-nil.
type Work struct {
	S           string
	Out         []int64
	Comparisons []int64
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
			best, comparisons := Position(wk.S, i)
			if wk.Out != nil {
				wk.Out[i] = best
			}
			if wk.Comparisons != nil {
				wk.Comparisons[i] = comparisons
			}
			return best
		},
	}
}

// CyclesPerComparison is the virtual cost of one inner-loop character
// comparison (load + compare + branch on cached data).
const CyclesPerComparison = 2

// SimCycles returns the virtual work the simulator charges once the
// body of the position range [lo, hi) of a Job over wk returns: the
// comparisons the leaf's scan made (wk.Comparisons must be allocated),
// at CyclesPerComparison each, and nothing at an inner node.
func SimCycles(wk *Work) func(lo, hi int64) uint64 {
	return func(lo, hi int64) uint64 {
		if hi-lo != 1 {
			return 0
		}
		return uint64(wk.Comparisons[lo]) * CyclesPerComparison
	}
}
