// Package sched_test is the registry-driven conformance suite: every
// registered scheduler must agree with the serial reference on the
// generic jobs over randomized inputs, execute each leaf exactly once
// per repetition, and report sane normalized statistics. New
// schedulers get all of this by registering — no per-backend test
// plumbing.
package sched_test

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"gowool/internal/chaselev"
	"gowool/internal/core"
	"gowool/internal/locksched"
	"gowool/internal/sched"
	"gowool/internal/workloads/cholesky"
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/ssf"
)

// TestRegistry checks the registry surface itself: all seven native
// schedulers present (the direct task stack twice — generic and
// woolgen-generated ports), in presentation order, each with a name,
// blurb and steal description.
func TestRegistry(t *testing.T) {
	want := []string{"wool", "woolgen", "chaselev", "locksched", "cilk", "omp", "gonative"}
	got := sched.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("Names()[%d] = %q, want %q (full: %v)", i, got[i], name, got)
		}
		s, ok := sched.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missing", name)
		}
		if s.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, s.Name())
		}
		if s.Blurb() == "" {
			t.Errorf("%s: empty Blurb", name)
		}
		if s.Caps().Steal == "" {
			t.Errorf("%s: empty Caps.Steal description", name)
		}
	}
	if _, ok := sched.Lookup("no-such-scheduler"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
}

// TestConformanceFib quick-checks every scheduler's RunRec against the
// job's serial reference over randomized (seeded) sizes, repetition
// counts and worker counts.
func TestConformanceFib(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(42))
	for _, s := range sched.All() {
		t.Run(s.Name(), func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				n := int64(8 + rng.Intn(9))    // fib(8..16)
				reps := int64(1 + rng.Intn(3)) // 1..3 serialized regions
				workers := 3 + rng.Intn(2)     // 3..4
				j := fibw.Job(n, reps)
				p := s.NewPool(sched.Options{Workers: workers})
				got := p.RunRec(j)
				p.Close()
				if want := j.Serial(); got != want {
					t.Fatalf("fib(%d)×%d workers=%d: got %d, want %d", n, reps, workers, got, want)
				}
			}
		})
	}
}

// TestConformanceIrregularRange quick-checks RunRange on the paper's
// irregular workload (ssf: per-index work varies wildly) against the
// serial reference.
func TestConformanceIrregularRange(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(7))
	for _, s := range sched.All() {
		t.Run(s.Name(), func(t *testing.T) {
			for trial := 0; trial < 2; trial++ {
				word := int64(9 + rng.Intn(2)) // |s_9| = 55, |s_10| = 89
				str := ssf.FibString(word)
				j := ssf.Job(&ssf.Work{S: str}, 1)
				p := s.NewPool(sched.Options{Workers: 3})
				got := p.RunRange(j)
				p.Close()
				if want := ssf.Serial(str, nil); got != want {
					t.Fatalf("ssf(%d): got %d, want %d", word, got, want)
				}
			}
		})
	}
}

// TestExactlyOnceRange verifies each range index runs exactly once per
// repetition on every scheduler, with atomic per-index counters.
func TestExactlyOnceRange(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const n, repeat = 97, 3
	for _, s := range sched.All() {
		t.Run(s.Name(), func(t *testing.T) {
			counts := make([]atomic.Int64, n)
			j := sched.RangeJob{
				Name: "count", N: n, Reps: repeat, Irregular: true,
				Leaf: func(i int64) int64 { counts[i].Add(1); return 1 },
			}
			p := s.NewPool(sched.Options{Workers: 4})
			got := p.RunRange(j)
			p.Close()
			if got != n*repeat {
				t.Fatalf("sum = %d, want %d", got, n*repeat)
			}
			for i := range counts {
				if c := counts[i].Load(); c != repeat {
					t.Fatalf("index %d ran %d times, want %d", i, c, repeat)
				}
			}
		})
	}
}

// TestExactlyOnceRec does the same for the recursive shape: a perfect
// binary tree of height 5 must execute exactly 2^5 leaves per
// repetition.
func TestExactlyOnceRec(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const height, repeat = 5, 2
	for _, s := range sched.All() {
		t.Run(s.Name(), func(t *testing.T) {
			var leaves atomic.Int64
			j := sched.RecJob{
				Name: "tree", Root: height, Reps: repeat,
				Leaf: func(h int64) (int64, bool) {
					if h == 0 {
						leaves.Add(1)
						return 1, true
					}
					return 0, false
				},
				Split: func(h int64) (inline, spawned int64) { return h - 1, h - 1 },
			}
			p := s.NewPool(sched.Options{Workers: 4})
			got := p.RunRec(j)
			p.Close()
			if want := int64(repeat << height); got != want {
				t.Fatalf("sum = %d, want %d", got, want)
			}
			if c := leaves.Load(); c != int64(repeat<<height) {
				t.Fatalf("leaves ran %d times, want %d", c, repeat<<height)
			}
		})
	}
}

// TestStatsSanity runs a spawn-heavy job and checks the normalized
// counters of every scheduler that claims to keep them: spawns
// counted, steals never exceed attempts, joins (where the backend has
// join events) balance spawns, and ResetStats zeroes everything.
func TestStatsSanity(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, s := range sched.All() {
		t.Run(s.Name(), func(t *testing.T) {
			p := s.NewPool(sched.Options{Workers: 4})
			defer p.Close()
			j := fibw.Job(16, 1)
			want := j.Serial()
			if got := p.RunRec(j); got != want {
				t.Fatalf("fib(16) = %d, want %d", got, want)
			}
			st := p.Stats()
			if !s.Caps().Stats {
				if st.Spawns != 0 || st.Joins() != 0 || st.Steals != 0 ||
					st.StealAttempts != 0 || st.Backoffs != 0 || len(st.Extra) != 0 {
					t.Fatalf("Caps.Stats false but Stats() = %+v", st)
				}
				return
			}
			if st.Spawns <= 0 {
				t.Errorf("Spawns = %d, want > 0", st.Spawns)
			}
			if st.Steals > st.StealAttempts {
				t.Errorf("Steals = %d > StealAttempts = %d", st.Steals, st.StealAttempts)
			}
			if joins := st.Joins(); joins > 0 && joins != st.Spawns {
				t.Errorf("Joins() = %d, want %d (one join per spawn)", joins, st.Spawns)
			}
			for _, k := range st.ExtraKeys() {
				if st.Extra[k] < 0 {
					t.Errorf("Extra[%q] = %d, want >= 0", k, st.Extra[k])
				}
			}
			// StealAttempts is not checked: the idle workers of a
			// live pool keep probing between ResetStats and Stats.
			p.ResetStats()
			if st = p.Stats(); st.Spawns != 0 || st.Steals != 0 || st.Joins() != 0 {
				t.Errorf("ResetStats left %+v", st)
			}
		})
	}
}

// TestCholeskyTaskDefSchedulers instantiates the generic cholesky
// factorization for every backend that exposes DefineC3-style task
// constructors and checks the factor against the serial one. (This is
// the irregular spawn structure that doesn't fit RunRec/RunRange; the
// concrete scheduler packages are deliberately in scope only here.)
func TestCholeskyTaskDefSchedulers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	mSerial := cholesky.Generate(96, 350, 1234)
	mSerial.Factor()
	want := mSerial.ToDenseLower()

	check := func(t *testing.T, got [][]float64) {
		t.Helper()
		for i := range want {
			for j := 0; j <= i; j++ {
				if math.Abs(want[i][j]-got[i][j]) > 1e-9 {
					t.Fatalf("L[%d][%d] = %g, want %g", i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	t.Run("wool", func(t *testing.T) {
		for _, workers := range []int{1, 3} {
			p := core.NewPool(core.Options{Workers: workers, PrivateTasks: true})
			m := cholesky.Generate(96, 350, 1234)
			cholesky.New(core.DefineC3[cholesky.Arena]).Factor(p.Run, m)
			p.Close()
			check(t, m.ToDenseLower())
		}
	})
	t.Run("chaselev", func(t *testing.T) {
		for _, workers := range []int{1, 3} {
			p := chaselev.NewPool(chaselev.Options{Workers: workers})
			m := cholesky.Generate(96, 350, 1234)
			cholesky.New(chaselev.DefineC3[cholesky.Arena]).Factor(p.Run, m)
			p.Close()
			check(t, m.ToDenseLower())
		}
	})
	t.Run("locksched", func(t *testing.T) {
		for _, workers := range []int{1, 3} {
			p := locksched.NewPool(locksched.Options{Workers: workers})
			m := cholesky.Generate(96, 350, 1234)
			cholesky.New(locksched.DefineC3[cholesky.Arena]).Factor(p.Run, m)
			p.Close()
			check(t, m.ToDenseLower())
		}
	})

	// Every scheduler whose Caps claim task definitions must expose a
	// concrete pool through Native; the claim is what cmd/woolrun keys
	// its cholesky dispatch on.
	for _, s := range sched.All() {
		if !s.Caps().TaskDefs {
			continue
		}
		p := s.NewPool(sched.Options{Workers: 1})
		if p.Native() == nil {
			t.Errorf("%s: Caps.TaskDefs set but Native() is nil", s.Name())
		}
		p.Close()
	}
}
