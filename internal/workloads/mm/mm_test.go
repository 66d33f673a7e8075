package mm_test

import (
	"math"
	"runtime"
	"testing"

	"gowool/internal/costmodel"
	"gowool/internal/sched"
	"gowool/internal/sim"
	"gowool/internal/workloads"
	"gowool/internal/workloads/mm"
)

func referenceMultiply(m *mm.Matrices) []float64 {
	n := m.N
	out := make([]float64, n*n)
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			var s float64
			for k := int64(0); k < n; k++ {
				s += m.A[i*n+k] * m.B[k*n+j]
			}
			out[i*n+j] = s
		}
	}
	return out
}

func maxDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestSerial(t *testing.T) {
	m := mm.New(33)
	mm.Serial(m)
	if d := maxDiff(m.C, referenceMultiply(m)); d > 1e-9 {
		t.Errorf("serial multiply differs from reference by %g", d)
	}
}

// checkRow runs Job for an n×n multiply on the registry row name and
// checks C element-wise against the naive reference product.
func checkRow(t *testing.T, name string, o sched.Options, n int64) {
	t.Helper()
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	s, ok := sched.Lookup(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	m := mm.New(n)
	want := referenceMultiply(m)
	p := s.NewPool(o)
	defer p.Close()
	if got := p.RunRange(mm.Job(m, 1)); got != n {
		t.Fatalf("%s: rows computed = %d, want %d", name, got, n)
	}
	if d := maxDiff(m.C, want); d > 1e-9 {
		t.Errorf("%s multiply differs by %g", name, d)
	}
}

// TestWoolMatchesSerial runs Job through core.Define2, the wool row,
// on four workers with private tasks.
func TestWoolMatchesSerial(t *testing.T) {
	checkRow(t, "wool", sched.Options{Workers: 4, PrivateTasks: true}, 64)
}

// TestGeneratedPortMatchesSerial runs Job through the woolgen-generated
// range port (ports.RunRange), the woolgen row, on four workers with
// private tasks.
func TestGeneratedPortMatchesSerial(t *testing.T) {
	checkRow(t, "woolgen", sched.Options{Workers: 4, PrivateTasks: true}, 33)
}

func TestOMPMatchesSerial(t *testing.T) {
	// The OpenMP row runs Job as a static work-sharing loop; check
	// that path writes the same C as the serial reference.
	checkRow(t, "omp", sched.Options{Workers: 4}, 50)
}

func TestResetAndRepeat(t *testing.T) {
	m := mm.New(20)
	mm.Serial(m)
	first := append([]float64(nil), m.C...)
	m.Reset()
	for _, v := range m.C {
		if v != 0 {
			t.Fatal("Reset left nonzero C")
		}
	}
	mm.Serial(m)
	if d := maxDiff(m.C, first); d != 0 {
		t.Errorf("repeat differs by %g", d)
	}
}

func TestSimWorkMatchesPaperRepSz(t *testing.T) {
	// Paper Table I: mm with 64 rows has RepSz ≈ 976k cycles. Our
	// model (4·n² per row) gives 64·4·64² ≈ 1.05M — same ballpark.
	res := sim.Run(sim.Config{Procs: 1, Kind: sim.KindDirectStack, Costs: costmodel.Wool(),
		TrackSpan: true}, workloads.MustLookup("mm").Sim(workloads.Params{N: 64}))
	if res.Value != 64 {
		t.Fatalf("rows = %d", res.Value)
	}
	if res.Work < 900_000 || res.Work > 1_200_000 {
		t.Errorf("RepSz model = %d cycles, want ≈ 976k–1.05M", res.Work)
	}
	// 63 tasks for 64 rows (paper Section IV-D2a: "63 tasks are
	// spawned each of which will do one iteration of the outer loop").
	if res.Total.Spawns != 63 {
		t.Errorf("spawns = %d, want 63", res.Total.Spawns)
	}
}

func TestSimRepsValue(t *testing.T) {
	res := sim.Run(sim.Config{Procs: 4, Kind: sim.KindDirectStack, Costs: costmodel.Wool()},
		workloads.MustLookup("mm").Sim(workloads.Params{N: 16, Reps: 10}))
	if res.Value != 160 {
		t.Errorf("rows over reps = %d, want 160", res.Value)
	}
}
