package vtime

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestSingleProc(t *testing.T) {
	m := NewMachine(1)
	times := m.Run(func(p *Proc) {
		p.Step(100)
		p.Step(50)
		p.Advance(7)
	})
	if times[0] != 157 {
		t.Errorf("time = %d, want 157", times[0])
	}
}

func TestMinTimeOrdering(t *testing.T) {
	// Two procs: proc 0 takes big steps, proc 1 small ones. The
	// interleaving must always run the earlier clock, so proc 1
	// observes proc 0's shared writes only after its own clock passes
	// proc 0's write time.
	m := NewMachine(2)
	var log []int
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Step(100) // now=100
			log = append(log, 0)
			p.Step(100) // now=200
			log = append(log, 0)
		} else {
			for i := 0; i < 4; i++ {
				p.Step(30) // 30,60,90,120
				log = append(log, 1)
			}
		}
	})
	// Expected execution order by virtual completion time of each step:
	// p1@30, p1@60, p1@90, p0@100, p1@120, p0@200.
	want := []int{1, 1, 1, 0, 1, 0}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestTieBreakByID(t *testing.T) {
	m := NewMachine(3)
	var order []int
	m.Run(func(p *Proc) {
		p.Step(10) // all tie at 10
		order = append(order, p.ID())
	})
	// First resumption round is at time 0 for all: IDs in order; after
	// each steps to 10, again in ID order.
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("order = %v, want [0 1 2]", order)
	}
}

func TestWaitUntil(t *testing.T) {
	m := NewMachine(1)
	times := m.Run(func(p *Proc) {
		p.Step(10)
		p.WaitUntil(500)
		p.WaitUntil(100) // no-op: already past
	})
	if times[0] != 500 {
		t.Errorf("time = %d, want 500", times[0])
	}
}

func TestStopFlag(t *testing.T) {
	m := NewMachine(2)
	iters := 0
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Step(100)
			p.Machine().SetStop()
			return
		}
		for !p.Machine().Stopped() {
			iters++
			p.Step(10)
			if iters > 1000 {
				t.Error("stop flag never observed")
				return
			}
		}
	})
	if iters == 0 || iters > 20 {
		t.Errorf("idle iterations = %d, want ≈ 10", iters)
	}
}

func TestSharedStateTokenSafety(t *testing.T) {
	// 8 procs increment a plain shared counter 1000 times each; with
	// token discipline no increments are lost despite no atomics.
	m := NewMachine(8)
	counter := 0
	m.Run(func(p *Proc) {
		for i := 0; i < 1000; i++ {
			counter++
			p.Step(uint64(1 + p.ID()))
		}
	})
	if counter != 8000 {
		t.Errorf("counter = %d, want 8000", counter)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []int {
		m := NewMachine(4)
		var trace []int
		m.Run(func(p *Proc) {
			x := uint64(p.ID()*2654435761 + 17)
			for i := 0; i < 50; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				trace = append(trace, p.ID())
				p.Step(x%97 + 1)
			}
		})
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestQuickClockMonotone(t *testing.T) {
	err := quick.Check(func(steps []uint16) bool {
		m := NewMachine(2)
		ok := true
		m.Run(func(p *Proc) {
			prev := p.Now()
			for _, s := range steps {
				p.Step(uint64(s % 1000))
				if p.Now() < prev {
					ok = false
				}
				prev = p.Now()
			}
		})
		return ok
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

func TestInvalidProcCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMachine(0)
}

func TestMachineReuse(t *testing.T) {
	m := NewMachine(2)
	t1 := m.Run(func(p *Proc) { p.Step(10) })
	t2 := m.Run(func(p *Proc) { p.Step(20) })
	if t1[0] != 10 || t2[0] != 20 {
		t.Errorf("t1=%v t2=%v; clocks must reset between runs", t1, t2)
	}
}

func BenchmarkStepOverhead(b *testing.B) {
	m := NewMachine(2)
	b.ResetTimer()
	m.Run(func(p *Proc) {
		for i := 0; i < b.N/2; i++ {
			p.Step(1)
		}
	})
}

// TestBodyPanicPropagates: a body's panic comes out of Run, after the
// other bodies have been unwound (their deferred calls ran, their
// coroutines are gone), and the machine runs again afterwards. The
// other bodies never see the stop flag: only the unwind ends them
// before their clocks pass 1000.
func TestBodyPanicPropagates(t *testing.T) {
	m := NewMachine(4)
	before := runtime.NumGoroutine()
	var unwound [4]bool
	func() {
		defer func() {
			if r := recover(); r != "proc boom" {
				t.Fatalf("recovered %v, want proc boom", r)
			}
		}()
		m.Run(func(p *Proc) {
			defer func() { unwound[p.ID()] = true }()
			if p.ID() == 2 {
				p.Step(5)
				panic("proc boom")
			}
			for !p.Machine().Stopped() {
				p.Step(10)
				if p.Now() > 1000 {
					t.Errorf("proc %d ran on after the panic", p.ID())
					return
				}
			}
		})
		t.Fatal("panic did not propagate")
	}()
	for id, ok := range unwound {
		if !ok {
			t.Errorf("proc %d: deferred call did not run", id)
		}
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("goroutines after the panicking Run = %d, want %d", n, before)
	}
	times := m.Run(func(p *Proc) { p.Step(uint64(10 * (p.ID() + 1))) })
	for id, now := range times {
		if want := uint64(10 * (id + 1)); now != want {
			t.Errorf("rerun: proc %d clock = %d, want %d", id, now, want)
		}
	}
}

// TestQuickOrderMatchesReference checks the interleaving, lookahead
// included, against a plain min-(clock, ID) loop: at P = 1..5, each
// processor runs a random list of steps (cost 0 is a Yield; small
// costs make ties common) and logs (ID, clock) at the start of every
// segment between two yields.
func TestQuickOrderMatchesReference(t *testing.T) {
	type event struct {
		id  int
		now uint64
	}
	err := quick.Check(func(n uint8, raw [5][]uint8) bool {
		procs := int(n%5) + 1
		costs := make([][]uint64, procs)
		for i := range costs {
			for _, c := range raw[i] {
				costs[i] = append(costs[i], uint64(c%6))
			}
		}

		var got []event
		NewMachine(procs).Run(func(p *Proc) {
			for _, c := range costs[p.ID()] {
				got = append(got, event{p.ID(), p.Now()})
				if c == 0 {
					p.Yield()
				} else {
					p.Step(c)
				}
			}
			got = append(got, event{p.ID(), p.Now()})
		})

		var want []event
		clock := make([]uint64, procs)
		seg := make([]int, procs) // next segment; len(costs[i])+1 when done
		for {
			best := -1
			for i := range clock {
				if seg[i] <= len(costs[i]) && (best < 0 || clock[i] < clock[best]) {
					best = i
				}
			}
			if best < 0 {
				break
			}
			want = append(want, event{best, clock[best]})
			if seg[best] < len(costs[best]) {
				clock[best] += costs[best][seg[best]]
			}
			seg[best]++
		}
		return slices.Equal(got, want)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}
