package sched_test

import (
	"flag"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/sched"
	"gowool/internal/steal"
	"gowool/internal/workloads/fibw"
)

// chaosSweep time-boxes TestChaosSeedSweep: 0 (the default) runs a
// handful of fixed seeds; a duration keeps drawing fresh seeds until
// the box expires. Every seed is logged so a CI failure is replayable:
//
//	go test ./internal/sched/ -run TestChaosSeedSweep -chaos.sweep=30s
var chaosSweep = flag.Duration("chaos.sweep", 0, "time box for the chaos seed sweep (0 = fixed seeds only)")

// tortureWorkers is the pool size for every torture run; the host may
// have a single core, so GOMAXPROCS is raised around each run.
const tortureWorkers = 4

// runTorture drives one scheduler through the serial-agreement and
// exactly-once workloads under one chaos profile, seed, and steal
// config. Every failure message carries the profile, steal policy and
// seed, which replay the run byte-for-byte.
func runTorture(t *testing.T, s *sched.Scheduler, prof chaos.Profile, seed uint64, stl steal.Config) {
	t.Helper()
	polName := stl.Defaults().Policy
	opts := sched.Options{
		Workers: tortureWorkers,
		Chaos:   chaos.NewInjector(tortureWorkers, prof, seed),
		Steal:   stl,
	}
	if s.Caps().Watchdog {
		// Generous relative to the profiles' delays: a hang becomes a
		// diagnosable failure instead of a stuck CI job, and a merely
		// perturbed-but-progressing run must never trip it.
		opts.Watchdog = 2 * time.Second
	}

	// Serial agreement: a steal-heavy recursion must produce the
	// serial answer no matter what the injector does to the protocol.
	j := fibw.Job(16, 1)
	p := s.NewPool(opts)
	got := p.RunRec(j)
	p.Close()
	if want := fibw.Serial(16); got != want {
		t.Fatalf("%s profile=%s policy=%s seed=%d: fib(16) = %d, want %d (replay with this profile, policy and seed)",
			s.Name(), prof.Name, polName, seed, got, want)
	}

	// Exactly-once: chaos must never duplicate or drop a leaf.
	const height = 6
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
	opts.Chaos = chaos.NewInjector(tortureWorkers, prof, seed+1)
	p = s.NewPool(opts)
	got = p.RunRec(rec)
	p.Close()
	if want := int64(1 << height); got != want || leaves.Load() != want {
		t.Fatalf("%s profile=%s policy=%s seed=%d: tree sum=%d leaves=%d, want %d (replay with this profile, policy and seed)",
			s.Name(), prof.Name, polName, seed+1, got, leaves.Load(), want)
	}
}

// TestChaosTorture is the conformance arm of the fault-injection
// tentpole: every registered scheduler, under every built-in chaos
// profile, must stay correct. Backends without Caps.Chaos (gonative)
// still run — their pools ignore the injector — so the suite shape
// stays registry-driven.
func TestChaosTorture(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	profiles := chaos.Profiles()
	if len(profiles) < 3 {
		t.Fatalf("want at least 3 built-in chaos profiles, have %d", len(profiles))
	}
	for _, s := range sched.All() {
		t.Run(s.Name(), func(t *testing.T) {
			for _, prof := range profiles {
				t.Run(prof.Name, func(t *testing.T) {
					runTorture(t, s, prof, 0x5eed, steal.Config{})
				})
			}
		})
	}
}

// TestStealPolicyTorture runs the torture workloads (serial agreement
// and exactly-once) over every advertised steal policy on every
// backend that advertises policies, rotating the chaos profiles so each
// policy meets a different perturbation. Localized runs with a
// 2-worker neighborhood so it doesn't degenerate to random at the
// 4-worker torture size. The leaf "one" names the steal amount, one
// task per steal on every backend, and keeps the subtest IDs stable.
func TestStealPolicyTorture(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	profiles := chaos.Profiles()
	for _, s := range sched.All() {
		caps := s.Caps()
		if len(caps.StealPolicies) == 0 {
			continue
		}
		t.Run(s.Name(), func(t *testing.T) {
			for run, pol := range caps.StealPolicies {
				prof := profiles[run%len(profiles)]
				t.Run(pol+"/one", func(t *testing.T) {
					runTorture(t, s, prof, 0x57ea1, steal.Config{Policy: pol, Neighborhood: 2})
				})
			}
		})
	}
}

// TestChaosSeedSweep drives the torture workloads across many seeds on
// the chaos-capable backends, logging every seed tried so any failure
// in CI is replayable. Without -chaos.sweep it covers a small fixed
// set; with a time box it keeps drawing seeds from a splitmix stream
// until the box expires.
func TestChaosSeedSweep(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	profiles := chaos.Profiles()

	var seeds []uint64
	if *chaosSweep <= 0 {
		seeds = []uint64{1, 2, 0xdead}
	}

	rng := chaos.NewRNG(0x5eed5eed)
	deadline := time.Now().Add(*chaosSweep)
	for round := 0; ; round++ {
		var seed uint64
		switch {
		case seeds != nil:
			if round >= len(seeds) {
				return
			}
			seed = seeds[round]
		default:
			if !time.Now().Before(deadline) {
				return
			}
			seed = rng.Next()
		}
		prof := profiles[round%len(profiles)]
		for _, s := range sched.All() {
			if !s.Caps().Chaos {
				continue
			}
			t.Logf("sweep round %d: scheduler=%s profile=%s seed=%d", round, s.Name(), prof.Name, seed)
			runTorture(t, s, prof, seed, steal.Config{})
		}
	}
}
