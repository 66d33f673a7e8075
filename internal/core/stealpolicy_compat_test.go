package core

import (
	"testing"

	"gowool/internal/steal"
)

// This file is the bit-for-bit guard for the steal-policy refactor:
// the original victim-selection algorithm (nextVictim / chooseVictim
// with inline retention accounting) is reimplemented here as a
// test-local replica, and the worker's policy-based chooseVictim must
// produce the exact same victim sequence for the same seed, the same
// scripted stealability, and the same outcome feedback — with
// retention (the default last-victim policy) and without it (random).

// legacyChooser is the pre-refactor core victim selection with
// w.pool.workers[i] replaced by indices and stealableAt by a scripted
// probe. retain is 1 (retention, dropped at the first miss) or -1
// (retention off).
type legacyChooser struct {
	rng          uint64
	self, n      int
	lastVictim   int
	retainMisses int
	retain       int
}

func newLegacyChooser(self, n, retain int) *legacyChooser {
	return &legacyChooser{
		rng:        uint64(self)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		self:       self,
		n:          n,
		lastVictim: -1,
		retain:     retain,
	}
}

func (l *legacyChooser) nextVictim() int {
	if l.n == 1 {
		return l.self
	}
	x := l.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	l.rng = x
	n := l.n - 1
	v := int(x % uint64(n))
	if v >= l.self {
		v++
	}
	return v
}

func (l *legacyChooser) choose(stealable func(int) bool) int {
	if lv := l.lastVictim; lv >= 0 {
		if stealable(lv) {
			return lv
		}
		l.retainMisses++
		if l.retainMisses >= l.retain {
			l.lastVictim = -1
			l.retainMisses = 0
		}
	}
	return l.nextVictim()
}

// observeSuccess is the legacy idleLoop success block.
func (l *legacyChooser) observeSuccess(v int) {
	if l.retain > 0 {
		if l.lastVictim != v {
			l.lastVictim = v
		}
		l.retainMisses = 0
	}
}

// scriptRNG drives the stealability script — deliberately a different
// generator (splitmix64) than the victim RNG so the script can't
// accidentally stay in lockstep with the choices.
type scriptRNG uint64

func (s *scriptRNG) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func TestStealPolicyBitForBitLegacy(t *testing.T) {
	const workers, self, steps = 6, 1, 3000
	configs := []struct {
		name   string
		steal  steal.Config
		retain int
	}{
		{"default", steal.Config{}, 1},
		{"retain-disabled", steal.Config{Policy: steal.Random}, -1},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			p := stoppedPool(t, Options{Workers: workers, Steal: cfg.steal})
			w := p.workers[self]
			legacy := newLegacyChooser(self, workers, cfg.retain)

			script := scriptRNG(0xc0ffee)
			for step := 0; step < steps; step++ {
				// Script this step's stealability: a pseudo-random subset
				// of the other workers look stealable, including regular
				// all-empty phases (retention miss pressure) and all-full
				// phases (retention hit pressure).
				mask := script.next()
				switch step % 17 {
				case 5:
					mask = 0
				case 11:
					mask = ^uint64(0)
				}
				for i, v := range p.workers {
					if i == self {
						continue
					}
					if mask&(1<<uint(i)) != 0 {
						v.tasks[0].state.Store(stateTask)
					} else {
						v.tasks[0].state.Store(stateEmpty)
					}
				}
				stealable := func(i int) bool { return mask&(1<<uint(i)) != 0 }

				got := w.chooseVictim().idx
				want := legacy.choose(stealable)
				if got != want {
					t.Fatalf("step %d: policy chose %d, legacy chose %d (mask %#x)", step, got, want, mask)
				}
				// Feed back the outcome the real steal attempt would
				// have had (stealable == the CAS would find a task).
				if stealable(got) {
					w.pol.Observe(got, true)
					legacy.observeSuccess(got)
				} else {
					w.pol.Observe(got, false)
				}
			}
		})
	}
}

// TestStealPolicyProbeOrderFixedSeed pins the first victims worker 1 of
// a 6-worker pool probes under the default policy with nothing
// stealable — the literal probe order for the pinned seed schedule.
// If the RNG algorithm, the seed formula, the pick arithmetic, or the
// retention flow changes, this sequence changes.
func TestStealPolicyProbeOrderFixedSeed(t *testing.T) {
	p := stoppedPool(t, Options{Workers: 6})
	w := p.workers[1]
	legacy := newLegacyChooser(1, 6, 1)
	none := func(int) bool { return false }
	var got, want [16]int
	for i := range got {
		got[i] = w.chooseVictim().idx
		w.pol.Observe(got[i], false)
		want[i] = legacy.choose(none)
	}
	if got != want {
		t.Fatalf("probe order drifted:\n got %v\nwant %v", got, want)
	}
	// Pin the first victim against the raw seed formula, independent of
	// both implementations, so even a coordinated change trips here.
	x := steal.WorkerSeed(0, 1)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	first := int(x % 5)
	if first >= 1 {
		first++
	}
	if got[0] != first {
		t.Fatalf("first victim %d, raw-formula expectation %d", got[0], first)
	}
}
