package wskit

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/poolerr"
	"gowool/internal/trace"
)

// caught runs f and returns what it panicked with (nil = no panic).
func caught(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestBeginGuards pins the three values Begin raises, byte for byte
// what the five backends each raised before the kit.
func TestBeginGuards(t *testing.T) {
	closed := &Life{Name: "kit"}
	if !closed.Shutdown() || closed.Shutdown() {
		t.Fatal("Shutdown must report true exactly once")
	}
	if r := caught(closed.Begin); r != "kit: Run on closed Pool" {
		t.Errorf("Begin on a closed pool raised %#v", r)
	}

	poisoned := &Life{Name: "kit"}
	poisoned.Poison("boom")
	if r := caught(poisoned.Begin); r != "kit: pool poisoned by earlier task panic: boom" {
		t.Errorf("Begin on a poisoned pool raised %#v", r)
	}
	if poisoned.Running() {
		t.Error("a refused Begin holds the run claim")
	}

	l := &Life{Name: "kit"}
	l.Begin()
	r := caught(l.Begin)
	err, ok := r.(error)
	if !ok || !errors.Is(err, poolerr.ErrConcurrentRun) || err.Error() != "kit: concurrent Run on the same pool" {
		t.Errorf("overlapping Begin raised %#v, want kit: … wrapping poolerr.ErrConcurrentRun", r)
	}
	if !l.Running() {
		t.Error("the refused overlap released the first Run's claim")
	}
	l.End()
	if l.Running() || !l.Live() {
		t.Error("End after a clean Run must release the claim and leave the pool live")
	}
	l.Begin() // and the pool is reusable
	l.End()
}

// TestEndPoisonsAndReraises: a panic through End poisons the pool,
// releases the run claim and re-raises the same value, not a copy.
func TestEndPoisonsAndReraises(t *testing.T) {
	type marker struct{ int }
	want := &marker{7}
	l := &Life{Name: "kit"}
	r := caught(func() {
		l.Begin()
		defer l.End()
		panic(want)
	})
	if r != want {
		t.Fatalf("End re-raised %#v, want the original pointer", r)
	}
	if l.Running() {
		t.Error("run claim still held after the panic")
	}
	if cause, ok := l.Poisoned(); !ok || cause != want {
		t.Errorf("Poisoned() = %#v, %v; want the original value", cause, ok)
	}
	if l.Live() || l.Healthy() {
		t.Error("a poisoned pool reads as live: idle loops would keep stealing")
	}
	if r := caught(l.Rethrow); r != want {
		t.Errorf("Rethrow raised %#v, want the original value", r)
	}
	// A later panic does not displace the first cause.
	if l.Poison("second") {
		t.Error("second Poison claims to have poisoned")
	}
	if cause, _ := l.Poisoned(); cause != want {
		t.Errorf("cause displaced by a later Poison: %#v", cause)
	}
	// Lift returns the pool to service (core's Reset).
	l.Lift()
	if _, ok := l.Poisoned(); ok || !l.Live() || !l.Healthy() {
		t.Error("still poisoned after Lift")
	}
	if r := caught(l.Rethrow); r != nil {
		t.Errorf("Rethrow on a healthy pool raised %#v", r)
	}
	l.Begin()
	l.End()
}

// TestFirstCauseWins races Poison calls: exactly one wins, and every
// reader sees that one's value whole. Only meaningful under -race.
func TestFirstCauseWins(t *testing.T) {
	const racers = 8
	for round := 0; round < 200; round++ {
		l := &Life{Name: "kit"}
		var winners atomic.Int32
		var winner atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func(i int64) {
				defer wg.Done()
				if l.Poison(i) {
					winners.Add(1)
					winner.Store(i)
				}
				if _, ok := l.Poisoned(); !ok {
					t.Error("not poisoned after own Poison returned")
				}
			}(int64(i))
		}
		wg.Wait()
		if winners.Load() != 1 {
			t.Fatalf("round %d: %d Poison calls won, want 1", round, winners.Load())
		}
		if cause, _ := l.Poisoned(); cause != winner.Load() {
			t.Fatalf("round %d: cause %v, winner %d", round, cause, winner.Load())
		}
	}
}

// TestBackoffRungs pins the ladder no test pinned while five copies of
// it existed: spin below 64, yield to 1023, nap from 1024 — never with
// Max ≤ 0 — 1, 2, 3 … µs capped at Max, reported as elapsed time.
func TestBackoffRungs(t *testing.T) {
	b := Backoff{Max: 50 * time.Microsecond}
	for fails, want := range map[int]rung{
		1: rungSpin, 63: rungSpin,
		64: rungYield, 1023: rungYield,
		1024: rungNap, 1 << 20: rungNap,
	} {
		if got := b.rung(fails); got != want {
			t.Errorf("rung(%d) = %d, want %d", fails, got, want)
		}
	}
	for _, max := range []time.Duration{0, -1} {
		spin := Backoff{Max: max}
		if got := spin.rung(1 << 20); got != rungYield {
			t.Errorf("Max %v: rung(1<<20) = %d, want yield (never nap)", max, got)
		}
		if spin.firstNap(1024) {
			t.Errorf("Max %v: firstNap(1024) without a nap rung", max)
		}
		if d := spin.Step(1 << 20); d != 0 {
			t.Errorf("Max %v: Step slept %v", max, d)
		}
	}
	if b.firstNap(1023) || !b.firstNap(1024) || b.firstNap(1025) {
		t.Error("firstNap must hold at 1024 only")
	}
	// A napping-only backend's PARK analogue: one record per climb, at
	// the first nap, and none in spin mode.
	tr := trace.New(1, 16)
	for fails := 1020; fails <= 1030; fails++ {
		b.StepNapOnly(fails, tr.Ring(0), nil)
	}
	Backoff{Max: -1}.StepNapOnly(1024, tr.Ring(0), nil)
	if evs := tr.Snapshot()[0]; len(evs) != 1 || evs[0].Kind != trace.KindPark {
		t.Errorf("StepNapOnly recorded %v, want exactly one PARK", evs)
	}

	if d := b.Step(63); d != 0 {
		t.Errorf("spin rung slept %v", d)
	}
	if d := b.Step(1023); d != 0 {
		t.Errorf("yield rung slept %v", d)
	}
	if d := b.Step(1024 + 9); d < 10*time.Microsecond {
		t.Errorf("Step(1033) reported %v, below its nominal 10µs nap", d)
	}
	// Uncapped this nap would be a second; capped it is 50 µs plus the
	// timer's slack (about a millisecond on an idle P).
	if d := b.Step(1 << 20); d < b.Max || d > 500*time.Millisecond {
		t.Errorf("capped nap took %v, want ≥ %v and nowhere near 1s", d, b.Max)
	}
}

// TestBackoffYieldsOnOneP: on a single P a spinning thief would starve
// its victim, so even the spin rung yields there.
func TestBackoffYieldsOnOneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var ran atomic.Bool
	go ran.Store(true)
	b := Backoff{Max: time.Microsecond}
	for i := 0; i < 1000 && !ran.Load(); i++ {
		b.Step(1)
	}
	if !ran.Load() {
		t.Fatal("1000 spin-rung steps on one P never let another goroutine run")
	}
}

func TestCheckSinks(t *testing.T) {
	tr, inj := trace.New(2, 16), chaos.NewInjector(2, chaos.Profiles()[0], 1)
	CheckSinks("kit", 2, nil, nil)
	CheckSinks("kit", 2, tr, inj)
	if r := caught(func() { CheckSinks("kit", 3, tr, nil) }); r == nil {
		t.Error("a 2-ring tracer passed for 3 workers")
	}
	if r := caught(func() { CheckSinks("kit", 3, nil, inj) }); r == nil {
		t.Error("a 2-agent injector passed for 3 workers")
	}
}
