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
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"unicode"

	"gowool/internal/chaselev"
	"gowool/internal/core"
	"gowool/internal/locksched"
	"gowool/internal/sched"
	"gowool/internal/steal"
	"gowool/internal/workloads/cholesky"
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/ssf"
	"gowool/internal/wskit"
)

// registryRow is one backend's golden row: what the registry promises
// about it, field by field.
type registryRow struct {
	name, blurb, steal                           string
	private, stats, taskDefs, trc, chs, watchdog bool
	policies                                     []string
}

func rowOf(s interface {
	Name() string
	Blurb() string
	Caps() sched.Caps
}) registryRow {
	c := s.Caps()
	return registryRow{
		name: s.Name(), blurb: s.Blurb(), steal: c.Steal,
		private: c.PrivateTasks, stats: c.Stats, taskDefs: c.TaskDefs,
		trc: c.Trace, chs: c.Chaos, watchdog: c.Watchdog,
		policies: c.StealPolicies,
	}
}

// TestRegistry pins the registry surface itself: all seven native
// schedulers present (the direct task stack twice — generic and
// woolgen-generated ports), in presentation order, each with its golden
// row, and All returning a copy its caller may reorder.
func TestRegistry(t *testing.T) {
	woolBlurb := "direct task stack (the paper's scheduler): descriptors inline in a per-worker array, thief/victim sync on the descriptor state word, private tasks, leapfrogging"
	woolSteal := "CAS on the task descriptor's state word; steal child, oldest first"
	all := steal.Policies()
	want := []registryRow{
		{"wool", woolBlurb, woolSteal, true, true, true, true, true, true, all},
		{"woolgen", "direct task stack behind woolgen-generated monomorphic ports: private-path spawn/join flattens to plain stores and direct body calls",
			woolSteal, true, true, true, true, true, true, all},
		{"chaselev", "Chase-Lev deque, TBB-style: free-list task structures, pointer deque, thief/victim sync on the top/bottom indices, steal-anywhere blocked joins",
			"CAS on the deque's top index; steal child, oldest first", false, true, true, true, true, false, all},
		{"locksched", "lock-based, the paper's Base: per-worker locked task pools, a thief locks the victim then compares indices, leapfrogging joins",
			"per-worker lock around the victim's pool; steal child, oldest first", false, true, true, true, true, false, all},
		{"omp", "centralized pool, icc OpenMP 3.0-style: closure tasks through one global lock, taskwait helps, loops by work-sharing",
			"one lock-protected central queue; any idle worker takes the oldest task", false, true, false, true, true, false, nil},
		{"gonative", "idiomatic Go baseline: goroutines + channels/WaitGroups on the Go runtime, bounded forking for recursion, goroutine-per-chunk loops",
			"the Go runtime's own scheduler; no explicit task pool", false, false, false, false, false, false, nil},
	}
	got := sched.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %d rows", got, len(want))
	}
	for i, w := range want {
		if got[i] != w.name {
			t.Fatalf("Names()[%d] = %q, want %q (full: %v)", i, got[i], w.name, got)
		}
		s, ok := sched.Lookup(w.name)
		if !ok {
			t.Fatalf("Lookup(%q) missing", w.name)
		}
		if r := rowOf(s); !reflect.DeepEqual(r, w) {
			t.Errorf("%s row:\n got %+v\nwant %+v", w.name, r, w)
		}
	}
	if _, ok := sched.Lookup("no-such-scheduler"); ok {
		t.Error("Lookup of unknown name succeeded")
	}

	mine := sched.All()
	mine[0], mine[len(mine)-1] = mine[len(mine)-1], mine[0]
	if again := sched.Names(); !reflect.DeepEqual(again, got) {
		t.Errorf("reordering All()'s result changed Names(): %v, was %v", again, got)
	}
	if first := sched.All()[0].Name(); first != want[0].name {
		t.Errorf("All()[0] = %s after a caller reordered its copy, want %s", first, want[0].name)
	}
}

// TestConformanceFib quick-checks every scheduler's RunRec against the
// job's serial reference over randomized (seeded) sizes, repetition
// counts and worker counts. Every backend with a fixed-capacity task
// pool (Caps.TaskDefs) also runs fib(12) in an 8-slot pool: the spawns
// past capacity run inline at their call site, the result is still
// the serial one, and Stats().OverflowInlined counts them — alone
// (where the overflow is certain) and beside thieves.
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
			if !s.Caps().TaskDefs {
				return
			}
			for _, workers := range []int{1, 3} {
				j := fibw.Job(12, 2)
				p := s.NewPool(sched.Options{Workers: workers, StackSize: 8})
				got := p.RunRec(j)
				ovf := p.Stats().OverflowInlined
				p.Close()
				if want := j.Serial(); got != want {
					t.Fatalf("fib(12) in an 8-slot pool, workers=%d: got %d, want %d", workers, got, want)
				}
				if workers == 1 && ovf <= 0 {
					t.Fatalf("fib(12) in an 8-slot pool, workers=1: overflow_inlined = %d, want > 0", ovf)
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
// join events) balance spawns, Extra holds only counters of the
// backend's own (no key names a shared wskit.Counts field), and
// ResetStats zeroes everything.
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
				if st.Counts != (wskit.Counts{}) || len(st.Extra) != 0 {
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
			shared := map[string]bool{}
			ct := reflect.TypeFor[wskit.Counts]()
			for i := range ct.NumField() {
				shared[snakeCase(ct.Field(i).Name)] = true
			}
			for _, k := range st.ExtraKeys() {
				if shared[k] {
					t.Errorf("Extra[%q] repeats a wskit.Counts field", k)
				}
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

// snakeCase turns a Go field name into the key style of Extra:
// OverflowInlined is overflow_inlined.
func snakeCase(name string) string {
	var b strings.Builder
	for i, r := range name {
		if unicode.IsUpper(r) {
			if i > 0 {
				b.WriteByte('_')
			}
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
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
