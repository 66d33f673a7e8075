// Package mm is the paper's dense matrix multiply benchmark (from the
// Wool distribution): an unblocked n×n multiply with the outermost
// loop parallelized — as a balanced task tree over row ranges in the
// task schedulers, and as a work-sharing loop in the OpenMP version
// (Section IV-A: "the OpenMP implementations use OpenMP parallel for
// loops rather than using tasks trees to implement loops").
package mm

import "gowool/internal/sched"

// Matrices holds the operands and result as flat row-major n×n slices.
type Matrices struct {
	N       int64
	A, B, C []float64
}

// New allocates n×n matrices with a deterministic fill.
func New(n int64) *Matrices {
	m := &Matrices{N: n, A: make([]float64, n*n), B: make([]float64, n*n), C: make([]float64, n*n)}
	for i := range m.A {
		m.A[i] = float64(i%17) * 0.25
		m.B[i] = float64(i%13) * 0.5
	}
	return m
}

// Reset zeroes the result matrix.
func (m *Matrices) Reset() {
	for i := range m.C {
		m.C[i] = 0
	}
}

// Row computes one row of C = A×B.
func (m *Matrices) Row(i int64) {
	n := m.N
	ai := m.A[i*n : (i+1)*n]
	ci := m.C[i*n : (i+1)*n]
	for j := int64(0); j < n; j++ {
		var sum float64
		for k := int64(0); k < n; k++ {
			sum += ai[k] * m.B[k*n+j]
		}
		ci[j] = sum
	}
}

// Serial computes C = A×B with no task constructs.
func Serial(m *Matrices) {
	for i := int64(0); i < m.N; i++ {
		m.Row(i)
	}
}

// Job returns the multiply as a generic RangeJob over rows: the task
// schedulers expand it into a balanced task tree, the OpenMP row
// runs it as a static work-sharing loop (regular per-row work), both
// from this one body.
func Job(m *Matrices, reps int64) sched.RangeJob {
	return sched.RangeJob{
		Name: "mm-rows",
		N:    m.N,
		Reps: reps,
		Leaf: func(i int64) int64 { m.Row(i); return 1 },
	}
}

// RowCycles is the virtual cost of one row of an unblocked n×n
// multiply: n² multiply-adds at about 4 cycles each (memory bound;
// calibrated so mm(64) lands near the paper's RepSz of 976k cycles:
// 64 rows × 64² × 4 ≈ 1.05M).
func RowCycles(n int64) uint64 { return uint64(4 * n * n) }

// SimCycles returns the virtual work the simulator charges once the
// body of the row range [lo, hi) of an n×n multiply returns: one row's
// RowCycles(n) at a leaf, nothing at an inner node. Only time is
// simulated; the arithmetic itself is the native pools' job.
func SimCycles(n int64) func(lo, hi int64) uint64 {
	return func(lo, hi int64) uint64 {
		if hi-lo == 1 {
			return RowCycles(n)
		}
		return 0
	}
}
