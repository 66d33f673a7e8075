package ssf_test

import (
	"runtime"
	"testing"

	"gowool/internal/costmodel"
	"gowool/internal/sched"
	"gowool/internal/sim"
	"gowool/internal/workloads"
	"gowool/internal/workloads/ssf"
)

func TestFibString(t *testing.T) {
	cases := map[int64]string{
		0: "a", 1: "b", 2: "ba", 3: "bab", 4: "babba", 5: "babbabab",
	}
	for n, want := range cases {
		if got := ssf.FibString(n); got != want {
			t.Errorf("FibString(%d) = %q, want %q", n, got, want)
		}
	}
	// |s_n| follows the Fibonacci numbers.
	if got := len(ssf.FibString(12)); got != 233 {
		t.Errorf("|s_12| = %d, want 233", got)
	}
}

func TestPositionBruteForce(t *testing.T) {
	s := ssf.FibString(7)
	n := int64(len(s))
	for i := int64(0); i < n; i++ {
		best, _ := ssf.Position(s, i)
		// Brute force reference.
		var want int64
		for j := int64(0); j < n; j++ {
			if j == i {
				continue
			}
			var k int64
			for i+k < n && j+k < n && s[i+k] == s[j+k] {
				k++
			}
			if k > want {
				want = k
			}
		}
		if best != want {
			t.Errorf("Position(%d) = %d, want %d", i, best, want)
		}
	}
}

// checkRow scans FibString(n) with Job on the registry row name and
// checks the checksum and every position against the serial reference.
func checkRow(t *testing.T, name string, o sched.Options, n int64) {
	t.Helper()
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	sc, ok := sched.Lookup(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	s := ssf.FibString(n)
	serialOut := make([]int64, len(s))
	want := ssf.Serial(s, serialOut)
	wk := &ssf.Work{S: s, Out: make([]int64, len(s))}
	p := sc.NewPool(o)
	defer p.Close()
	if got := p.RunRange(ssf.Job(wk, 1)); got != want {
		t.Errorf("%s checksum = %d, want %d", name, got, want)
	}
	for i := range serialOut {
		if wk.Out[i] != serialOut[i] {
			t.Fatalf("%s: out[%d] = %d, want %d", name, i, wk.Out[i], serialOut[i])
		}
	}
}

// TestWoolMatchesSerial runs Job through core.Define2, the wool row,
// on four workers with private tasks.
func TestWoolMatchesSerial(t *testing.T) {
	checkRow(t, "wool", sched.Options{Workers: 4, PrivateTasks: true}, 11)
}

// TestGeneratedPortMatchesSerial runs Job through the woolgen-generated
// range port (ports.RunRange), the woolgen row, on four workers with
// private tasks.
func TestGeneratedPortMatchesSerial(t *testing.T) {
	checkRow(t, "woolgen", sched.Options{Workers: 4, PrivateTasks: true}, 11)
}

func TestOMPMatchesSerial(t *testing.T) {
	// The scan is irregular, so the OpenMP row runs Job as a
	// dynamic work-sharing loop; check that path against the serial
	// reference.
	checkRow(t, "omp", sched.Options{Workers: 4}, 10)
}

func TestSimMatchesSerial(t *testing.T) {
	want := ssf.Serial(ssf.FibString(10), nil)
	res := sim.Run(sim.Config{Procs: 4, Kind: sim.KindDirectStack, Costs: costmodel.Wool()},
		workloads.MustLookup("ssf").Sim(workloads.Params{N: 10}))
	if res.Value != want {
		t.Errorf("sim checksum = %d, want %d", res.Value, want)
	}
}

func TestSimWorkBallpark(t *testing.T) {
	// Paper Table I: ssf n=12 has RepSz ≈ 552k cycles. Our comparison
	// model should land within a factor of ~2.
	res := sim.Run(sim.Config{Procs: 1, Kind: sim.KindDirectStack, Costs: costmodel.Wool(),
		TrackSpan: true}, workloads.MustLookup("ssf").Sim(workloads.Params{N: 12}))
	if res.Work < 250_000 || res.Work > 1_200_000 {
		t.Errorf("ssf(12) work model = %d cycles, want ≈ 552k ± 2x", res.Work)
	}
}
