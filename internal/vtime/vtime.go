// Package vtime is a deterministic virtual-time multiprocessor kernel:
// P logical processors execute Go code under a global token that is
// always granted to the processor with the smallest virtual clock.
//
// This is the substrate on which internal/sim runs the paper's
// schedulers with P ∈ {1..64} virtual processors on any host,
// including the 2-CPU host this reproduction is measured on (DESIGN.md
// §2). The scheduling algorithms execute for real — every steal,
// back-off, trip-wire and leapfrog actually happens — but time is a
// per-processor cycle counter advanced by an explicit cost model
// instead of the wall clock.
//
// Concurrency discipline: each processor body runs in a coroutine
// (iter.Pull), and exactly one coroutine runs at a time (it holds the
// token); all simulated-shared state is therefore plain Go data,
// data-race-free by construction, and every run with the same seed
// replays the identical interleaving. Processor code must call Step
// (or Yield) inside every loop so the coordinator can keep global time
// moving; between two yields a processor's actions are atomic with
// respect to the others, which is how the simulated schedulers model
// their CAS/lock primitives.
package vtime

import (
	"fmt"
	"iter"
)

// Proc is one virtual processor. Its methods may only be called from
// the body function the Machine invoked on it, and only while that
// body holds the token (which it does whenever it is executing).
type Proc struct {
	id  int
	m   *Machine
	now uint64

	yield func(struct{}) bool // the running coroutine's yield
	next  func() (struct{}, bool)
	done  bool
}

// ID returns the processor's index, 0..P-1.
func (p *Proc) ID() int { return p.id }

// Now returns the processor's virtual clock in cycles.
func (p *Proc) Now() uint64 { return p.now }

// Machine returns the machine this processor belongs to.
func (p *Proc) Machine() *Machine { return p.m }

// Advance adds cost cycles to the clock without releasing the token.
// Use it for the pieces of a compound operation that must stay atomic
// with respect to other processors.
func (p *Proc) Advance(cost uint64) { p.now += cost }

// Step adds cost cycles to the clock and releases the token, letting
// any processor that is now earlier in virtual time run. Every loop in
// simulated scheduler code must Step, or global time stalls.
func (p *Proc) Step(cost uint64) {
	p.now += cost
	p.yieldToken()
}

// Yield releases the token without advancing the clock.
func (p *Proc) Yield() { p.yieldToken() }

// WaitUntil advances the clock to at least t (modelling blocking on a
// resource that frees at time t, e.g. a contended lock) and yields.
// It is a no-op beyond a yield if the clock is already past t.
func (p *Proc) WaitUntil(t uint64) {
	if p.now < t {
		p.now = t
	}
	p.yieldToken()
}

// unwind is the panic that ends a body whose coroutine Run stopped.
type unwind struct{}

// yieldToken hands the token back to the coordinator, unless p is
// still ahead of the runner-up: the coordinator would pick p again.
func (p *Proc) yieldToken() {
	if q := p.m.second; q != nil && !p.before(q) && !p.yield(struct{}{}) {
		panic(unwind{})
	}
}

// before orders processors as the coordinator does: by clock, then ID.
func (p *Proc) before(q *Proc) bool {
	return p.now < q.now || p.now == q.now && p.id < q.id
}

// Machine is a set of virtual processors sharing a token.
type Machine struct {
	procs []*Proc
	// stop is the cooperative shutdown flag for idle loops (set by the
	// workload when the root computation completes). Token-guarded.
	stop bool
	// second is the runner-up while a processor holds the token (nil
	// when it is the only unfinished one). Its clock cannot move then.
	second *Proc
}

// NewMachine creates a machine with n processors.
func NewMachine(n int) *Machine {
	if n <= 0 {
		panic(fmt.Sprintf("vtime: invalid processor count %d", n))
	}
	m := &Machine{}
	m.procs = make([]*Proc, n)
	for i := range m.procs {
		m.procs[i] = &Proc{id: i, m: m}
	}
	return m
}

// Procs returns the processor count.
func (m *Machine) Procs() int { return len(m.procs) }

// SetStop raises the cooperative stop flag (call from a proc body).
func (m *Machine) SetStop() { m.stop = true }

// Stopped reports the stop flag (call from a proc body).
func (m *Machine) Stopped() bool { return m.stop }

// Run executes body on every processor concurrently in virtual time
// and returns when all bodies have returned. It returns the final
// virtual clocks of all processors.
//
// The token protocol: the coordinator always resumes the unfinished
// processor with the smallest clock (ties broken by lowest ID), waits
// for it to yield or finish, and repeats. Within a call to Run the
// interleaving is a pure function of the bodies' behaviour.
// A panic in any body is re-raised from Run on the caller's goroutine,
// after the other bodies have been unwound (their deferred calls run);
// the machine can then run again.
func (m *Machine) Run(body func(p *Proc)) []uint64 {
	m.stop = false
	for _, p := range m.procs {
		p.now, p.done = 0, false
		var stop func()
		p.next, stop = iter.Pull(p.seq(body))
		defer stop()
	}
	for active := len(m.procs); active > 0; {
		p := m.minProc()
		if _, ok := p.next(); !ok {
			p.done = true
			active--
		}
	}
	times := make([]uint64, len(m.procs))
	for i, p := range m.procs {
		times[i] = p.now
	}
	return times
}

// seq is body as p's coroutine. Once Run stops the coroutine, yield
// returns false and yieldToken panics with unwind, which ends here.
func (p *Proc) seq(body func(p *Proc)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != (unwind{}) {
				panic(r)
			}
		}()
		p.yield = yield
		body(p)
	}
}

// minProc returns the unfinished processor that comes first by (clock,
// ID) and records the runner-up in second.
func (m *Machine) minProc() *Proc {
	var best *Proc
	m.second = nil
	for _, p := range m.procs {
		switch {
		case p.done:
		case best == nil || p.before(best):
			best, m.second = p, best
		case m.second == nil || p.before(m.second):
			m.second = p
		}
	}
	return best
}
