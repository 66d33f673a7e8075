package ssf

import (
	"runtime"
	"testing"

	"gowool/internal/core"
	"gowool/internal/costmodel"
	"gowool/internal/sched"
	"gowool/internal/sim"
)

func TestFibString(t *testing.T) {
	cases := map[int64]string{
		0: "a", 1: "b", 2: "ba", 3: "bab", 4: "babba", 5: "babbabab",
	}
	for n, want := range cases {
		if got := FibString(n); got != want {
			t.Errorf("FibString(%d) = %q, want %q", n, got, want)
		}
	}
	// |s_n| follows the Fibonacci numbers.
	if got := len(FibString(12)); got != 233 {
		t.Errorf("|s_12| = %d, want 233", got)
	}
}

func TestPositionBruteForce(t *testing.T) {
	s := FibString(7)
	n := int64(len(s))
	for i := int64(0); i < n; i++ {
		best, _ := Position(s, i)
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

func TestWoolMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	s := FibString(11)
	want := Serial(s, nil)

	wk := &Work{S: s, Out: make([]int64, len(s))}
	p := core.NewPool(core.Options{Workers: 4, PrivateTasks: true})
	defer p.Close()
	if got := RunWool(p, NewWool(), wk); got != want {
		t.Errorf("wool checksum = %d, want %d", got, want)
	}
	serialOut := make([]int64, len(s))
	Serial(s, serialOut)
	for i := range serialOut {
		if wk.Out[i] != serialOut[i] {
			t.Fatalf("out[%d] = %d, want %d", i, wk.Out[i], serialOut[i])
		}
	}
}

func TestOMPMatchesSerial(t *testing.T) {
	// The scan is irregular, so the OpenMP row runs Job as a
	// dynamic work-sharing loop; check that path against the serial
	// reference.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	s := FibString(10)
	want := Serial(s, nil)
	omp, ok := sched.Lookup("omp")
	if !ok {
		t.Fatal("omp not registered")
	}
	p := omp.NewPool(sched.Options{Workers: 4})
	defer p.Close()
	if got := p.RunRange(Job(&Work{S: s}, 1)); got != want {
		t.Errorf("omp checksum = %d, want %d", got, want)
	}
}

func TestSimMatchesSerial(t *testing.T) {
	s := FibString(10)
	want := Serial(s, nil)
	wk := &Work{S: s}
	res := sim.Run(sim.Config{Procs: 4, Kind: sim.KindDirectStack, Costs: costmodel.Wool()},
		NewSim(), sim.Args{A0: 0, A1: int64(len(s)), Ctx: wk})
	if res.Value != want {
		t.Errorf("sim checksum = %d, want %d", res.Value, want)
	}
}

func TestSimWorkBallpark(t *testing.T) {
	// Paper Table I: ssf n=12 has RepSz ≈ 552k cycles. Our comparison
	// model should land within a factor of ~2.
	wk := &Work{S: FibString(12)}
	res := sim.Run(sim.Config{Procs: 1, Kind: sim.KindDirectStack, Costs: costmodel.Wool(),
		TrackSpan: true}, NewSim(), sim.Args{A0: 0, A1: int64(len(wk.S)), Ctx: wk})
	if res.Work < 250_000 || res.Work > 1_200_000 {
		t.Errorf("ssf(12) work model = %d cycles, want ≈ 552k ± 2x", res.Work)
	}
}
