package sched_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"gowool/internal/sched"
	"gowool/internal/steal"
	"gowool/internal/workloads/fibw"
)

// TestStealCapsNameKnownPolicies: every advertised policy is a name
// internal/steal knows.
func TestStealCapsNameKnownPolicies(t *testing.T) {
	known := func(name string, all []string) bool {
		for _, k := range all {
			if k == name {
				return true
			}
		}
		return false
	}
	for _, s := range sched.All() {
		caps := s.Caps()
		for _, pol := range caps.StealPolicies {
			if !known(pol, steal.Policies()) {
				t.Errorf("%s advertises unknown policy %q", s.Name(), pol)
			}
		}
	}
}

// TestStealPolicyConformance runs the serial-agreement and
// exactly-once workloads over every advertised policy on every backend
// that advertises policies — the chaos-free arm of the policy matrix
// (TestStealPolicyTorture is the perturbed arm). Every failure message
// names the policy. The leaf "one" names the steal amount, one task per
// steal on every backend, and keeps the subtest IDs stable.
func TestStealPolicyConformance(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, s := range sched.All() {
		caps := s.Caps()
		if len(caps.StealPolicies) == 0 {
			continue
		}
		t.Run(s.Name(), func(t *testing.T) {
			for _, pol := range caps.StealPolicies {
				t.Run(pol+"/one", func(t *testing.T) {
					cfg := steal.Config{Policy: pol, Neighborhood: 2}

					j := fibw.Job(17, 2)
					p := s.NewPool(sched.Options{Workers: 4, Steal: cfg})
					got := p.RunRec(j)
					p.Close()
					if want := j.Serial(); got != want {
						t.Fatalf("%s policy=%s: fib(17)×2 = %d, want %d",
							s.Name(), pol, got, want)
					}

					const height = 8
					var leaves atomic.Int64
					rec := sched.RecJob{
						Name: "tree", Root: height, Reps: 1,
						Leaf: func(h int64) (int64, bool) {
							if h == 0 {
								leaves.Add(1)
								return 1, true
							}
							return 0, false
						},
						Split: func(h int64) (inline, spawned int64) { return h - 1, h - 1 },
					}
					p = s.NewPool(sched.Options{Workers: 4, Steal: cfg})
					got = p.RunRec(rec)
					p.Close()
					if want := int64(1 << height); got != want || leaves.Load() != want {
						t.Fatalf("%s policy=%s: tree sum=%d leaves=%d, want %d",
							s.Name(), pol, got, leaves.Load(), want)
					}
				})
			}
		})
	}
}

// TestStealConfigIgnoredWithoutCapability: backends that advertise no
// policies must run correctly with a non-default Steal config anyway
// (their pools ignore it).
func TestStealConfigIgnoredWithoutCapability(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, s := range sched.All() {
		if len(s.Caps().StealPolicies) > 0 {
			continue
		}
		t.Run(s.Name(), func(t *testing.T) {
			j := fibw.Job(14, 1)
			p := s.NewPool(sched.Options{
				Workers: 4,
				Steal:   steal.Config{Policy: steal.Localized},
			})
			got := p.RunRec(j)
			p.Close()
			if want := j.Serial(); got != want {
				t.Fatalf("%s: fib(14) = %d, want %d", s.Name(), got, want)
			}
		})
	}
}
