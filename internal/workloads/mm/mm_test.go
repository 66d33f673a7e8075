package mm

import (
	"math"
	"runtime"
	"testing"

	"gowool/internal/core"
	"gowool/internal/costmodel"
	"gowool/internal/sched"
	"gowool/internal/sim"
)

func referenceMultiply(m *Matrices) []float64 {
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
	m := New(33)
	Serial(m)
	if d := maxDiff(m.C, referenceMultiply(m)); d > 1e-9 {
		t.Errorf("serial multiply differs from reference by %g", d)
	}
}

func TestWoolMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	m := New(64)
	want := referenceMultiply(m)
	p := core.NewPool(core.Options{Workers: 4, PrivateTasks: true})
	defer p.Close()
	rows := NewWool()
	if got := RunWool(p, rows, m); got != 64 {
		t.Fatalf("rows computed = %d, want 64", got)
	}
	if d := maxDiff(m.C, want); d > 1e-9 {
		t.Errorf("wool multiply differs by %g", d)
	}
}

func TestOMPMatchesSerial(t *testing.T) {
	// The OpenMP row runs Job as a static work-sharing loop; check
	// that path writes the same C as the serial reference.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	m := New(50)
	want := referenceMultiply(m)
	omp, ok := sched.Lookup("omp")
	if !ok {
		t.Fatal("omp not registered")
	}
	p := omp.NewPool(sched.Options{Workers: 4})
	defer p.Close()
	if got := p.RunRange(Job(m, 1)); got != 50 {
		t.Fatalf("rows computed = %d, want 50", got)
	}
	if d := maxDiff(m.C, want); d > 1e-9 {
		t.Errorf("omp multiply differs by %g", d)
	}
}

func TestResetAndRepeat(t *testing.T) {
	m := New(20)
	Serial(m)
	first := append([]float64(nil), m.C...)
	m.Reset()
	for _, v := range m.C {
		if v != 0 {
			t.Fatal("Reset left nonzero C")
		}
	}
	Serial(m)
	if d := maxDiff(m.C, first); d != 0 {
		t.Errorf("repeat differs by %g", d)
	}
}

func TestSimWorkMatchesPaperRepSz(t *testing.T) {
	// Paper Table I: mm with 64 rows has RepSz ≈ 976k cycles. Our
	// model (4·n² per row) gives 64·4·64² ≈ 1.05M — same ballpark.
	res := sim.Run(sim.Config{Procs: 1, Kind: sim.KindDirectStack, Costs: costmodel.Wool(),
		TrackSpan: true}, NewSim(), sim.Args{A0: 0, A1: 64, A2: 64})
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
		NewSimReps(), sim.Args{A0: 16, A1: 10})
	if res.Value != 160 {
		t.Errorf("rows over reps = %d, want 160", res.Value)
	}
}
