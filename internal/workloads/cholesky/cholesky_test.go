package cholesky

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"gowool/internal/core"
	"gowool/internal/costmodel"
	"gowool/internal/sim"
)

// denseCholesky factors a dense symmetric matrix in place (lower),
// the reference for the quadtree algorithm.
func denseCholesky(a [][]float64) {
	n := len(a)
	for k := 0; k < n; k++ {
		d := math.Sqrt(a[k][k])
		a[k][k] = d
		for i := k + 1; i < n; i++ {
			a[i][k] /= d
		}
		for j := k + 1; j < n; j++ {
			for i := j; i < n; i++ {
				a[i][j] -= a[i][k] * a[j][k]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a[i][j] = 0
		}
	}
}

func maxAbsDiffLower(a, b [][]float64) float64 {
	var m float64
	for i := range a {
		for j := 0; j <= i; j++ {
			if d := math.Abs(a[i][j] - b[i][j]); d > m {
				m = d
			}
		}
	}
	return m
}

func TestSerialFactorMatchesDense(t *testing.T) {
	for _, tc := range []struct{ n, nz int64 }{
		{16, 0}, {16, 30}, {32, 60}, {48, 100}, {64, 200}, {100, 400},
	} {
		m := Generate(tc.n, tc.nz, 12345)
		ref := m.ToDense()
		denseCholesky(ref)
		m.Factor()
		got := m.ToDenseLower()
		if d := maxAbsDiffLower(ref, got); d > 1e-9 {
			t.Errorf("n=%d nz=%d: max |L_quad - L_dense| = %g", tc.n, tc.nz, d)
		}
	}
}

func TestFactorReconstructsA(t *testing.T) {
	m := Generate(80, 300, 999)
	a := m.ToDense()
	m.Factor()
	l := m.ToDenseLower()
	n := int(m.N)
	var worst float64
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += l[i][k] * l[j][k]
			}
			if d := math.Abs(s - a[i][j]); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-9 {
		t.Errorf("max |L·Lᵀ − A| = %g", worst)
	}
}

func TestWoolFactorMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{1, 2, 4} {
		mSerial := Generate(96, 350, 777)
		mSerial.Factor()
		want := mSerial.ToDenseLower()

		mPar := Generate(96, 350, 777)
		p := core.NewPool(core.Options{Workers: workers, PrivateTasks: true})
		New(core.DefineC3[Arena]).Factor(p.Run, mPar)
		p.Close()
		got := mPar.ToDenseLower()

		if d := maxAbsDiffLower(want, got); d > 1e-9 {
			t.Errorf("workers=%d: max diff vs serial = %g", workers, d)
		}
	}
}

// simFactor is a simulated root that factors m.
func simFactor(s SimSched, m *Matrix) sim.Root {
	return func(w *sim.W) int64 {
		s.FactorOn(w, m)
		return m.Ar.NodesInUse()
	}
}

func TestSimFactorMatchesSerial(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		mSerial := Generate(64, 250, 4242)
		mSerial.Factor()
		want := mSerial.ToDenseLower()

		mSim := Generate(64, 250, 4242)
		res := sim.Run(sim.Config{Procs: procs, Kind: sim.KindDirectStack, Costs: costmodel.Wool()},
			simFactor(NewSim(), mSim))
		got := mSim.ToDenseLower()
		if d := maxAbsDiffLower(want, got); d > 1e-9 {
			t.Errorf("procs=%d: max diff vs serial = %g", procs, d)
		}
		if res.Makespan == 0 {
			t.Errorf("procs=%d: zero makespan", procs)
		}
	}
}

func TestSimSpeedup(t *testing.T) {
	s := NewSim()
	run := func(procs int) uint64 {
		m := Generate(128, 500, 31337)
		return sim.Run(sim.Config{Procs: procs, Kind: sim.KindDirectStack, Costs: costmodel.Wool()},
			simFactor(s, m)).Makespan
	}
	t1 := run(1)
	t4 := run(4)
	if sp := float64(t1) / float64(t4); sp < 1.3 {
		t.Errorf("4-proc speedup = %.2f, want >= 1.3 (cholesky has limited parallelism at this size)", sp)
	}
}

func TestQuickFactorEquivalence(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	err := quick.Check(func(nRaw uint8, nzRaw uint8, seed uint16, wRaw uint8) bool {
		n := int64(nRaw%80) + 17
		nz := int64(nzRaw) * 2
		workers := int(wRaw%3) + 1

		mSerial := Generate(n, nz, uint64(seed)+1)
		mSerial.Factor()
		want := mSerial.ToDenseLower()

		mPar := Generate(n, nz, uint64(seed)+1)
		p := core.NewPool(core.Options{Workers: workers})
		New(core.DefineC3[Arena]).Factor(p.Run, mPar)
		p.Close()
		got := mPar.ToDenseLower()
		return maxAbsDiffLower(want, got) < 1e-9
	}, &quick.Config{MaxCount: 15})
	if err != nil {
		t.Error(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(64, 200, 5)
	b := Generate(64, 200, 5)
	for i := int64(0); i < 64; i++ {
		for j := int64(0); j <= i; j++ {
			if a.Get(i, j) != b.Get(i, j) {
				t.Fatalf("element (%d,%d) differs across same-seed generations", i, j)
			}
		}
	}
	c := Generate(64, 200, 6)
	same := true
	for i := int64(0); i < 64 && same; i++ {
		for j := int64(0); j < i; j++ {
			if a.Get(i, j) != c.Get(i, j) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical matrices")
	}
}

func TestFillInHappens(t *testing.T) {
	// Sparse enough that many leaf tiles start absent: 512 rows is a
	// 32×32 tile grid (528 lower tiles) with only ~400 nonzeros.
	m := Generate(512, 400, 88)
	before := m.Ar.NodesInUse()
	m.Factor()
	after := m.Ar.NodesInUse()
	if after <= before {
		t.Errorf("no fill-in allocated (before=%d after=%d); sparse update path untested", before, after)
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	ar := NewArena(64, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arena exhaustion")
		}
	}()
	for i := 0; i < 10; i++ {
		ar.NewNode()
	}
}

func TestPackUnpack(t *testing.T) {
	cases := [][2]int32{{0, 0}, {1, 2}, {1 << 30, 3}, {123456, 1 << 30}}
	for _, c := range cases {
		a, b := unpack2(pack2(c[0], c[1]))
		if a != c[0] || b != c[1] {
			t.Errorf("pack2 roundtrip (%d,%d) -> (%d,%d)", c[0], c[1], a, b)
		}
	}
	for _, r := range []int32{0, 7, 1 << 30} {
		for _, size := range []int64{16, 1024, 1 << 20} {
			for _, lower := range []bool{false, true} {
				r2, s2, l2 := unpackMeta(packMeta(r, size, lower))
				if r2 != r || s2 != size || l2 != lower {
					t.Errorf("meta roundtrip (%d,%d,%v) -> (%d,%d,%v)", r, size, lower, r2, s2, l2)
				}
			}
		}
	}
}

func BenchmarkSerialFactor250(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := Generate(250, 1000, 42)
		b.StartTimer()
		m.Factor()
		b.StopTimer()
	}
}

func BenchmarkWoolFactor250(b *testing.B) {
	p := core.NewPool(core.Options{Workers: 1, PrivateTasks: true})
	defer p.Close()
	s := New(core.DefineC3[Arena])
	for i := 0; i < b.N; i++ {
		m := Generate(250, 1000, 42)
		b.StartTimer()
		s.Factor(p.Run, m)
		b.StopTimer()
	}
}
