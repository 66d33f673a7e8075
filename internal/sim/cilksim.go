package sim

import (
	"gowool/internal/costmodel"
	"gowool/internal/steal"
	"gowool/internal/vtime"
)

// Steal-parent (continuation-stealing) execution on the virtual-time
// machine: the true Cilk execution order, complementing the cost-level
// approximation the experiment catalog uses for Cilk++ (KindLock with
// Cilk++ costs). Workloads are written as explicit continuation steps
// over cactus frames — the same shape as the native internal/cilkstyle
// engine — so a spawn runs the child immediately and thieves take the
// parent's continuation from the head of a locked deque.
//
// Cost accounting: SpawnPublic is charged at each spawn, JoinPublic at
// each continuation pop (the fast-path pair whose sum is the paper's
// "inlined" overhead), JoinStolen when a suspended sync is resumed by
// its last returning child, and StealWork (plus the same coherence
// penalties as the steal-child protocol) per successful steal. Lock
// occupancy uses the fair ticket model.

// CStep is one unit of a continuation-passing task function: do some
// work, return the next step (or hand control back with nil).
type CStep func(w *CW) CStep

// CFrame is the activation frame of a CPS task; embed it in a struct
// carrying the task's variables (the cactus-stack frame).
type CFrame struct {
	pending   int
	suspended bool
	resume    CStep
	parent    *CFrame
}

// NewCChild links child to parent in the cactus stack.
func NewCChild(parent, child *CFrame) *CFrame {
	child.parent = parent
	return child
}

// CW is one steal-parent worker on the virtual machine.
type CW struct {
	m *CMachine
	p *vtime.Proc

	deque     []CStep
	lockUntil uint64
	lastSteal uint64
	idx       int
	pol       steal.Policy
	maxDeque  int

	St Stats
}

// Proc exposes the virtual processor (for Work/clock access).
func (w *CW) Proc() *vtime.Proc { return w.p }

// Work advances the clock by application cycles.
func (w *CW) Work(cycles uint64) {
	w.St.NA += cycles
	w.p.Step(cycles)
}

// CMachine is a steal-parent scheduler instance on virtual time.
type CMachine struct {
	cfg      Config
	ws       []*CW
	rootDone bool
	makespan uint64
	lastAny  uint64
}

// CResult is a steal-parent run's outcome.
type CResult struct {
	Makespan uint64
	Total    Stats
	Workers  []Stats
	// MaxDeque is the high-water mark of ready continuations on any
	// single worker — steal-parent's space guarantee, made observable
	// (the paper's Section I-a: Cilk's constant-space spawn loop).
	MaxDeque int
}

// RunCilkSim executes a CPS workload to completion under steal-parent
// scheduling at cfg.Procs virtual processors. build constructs the
// root frame and first step; it runs on processor 0 with the token
// held, so it may freely touch shared workload state.
func RunCilkSim(cfg Config, build func(w *CW) CStep) CResult {
	cfg = cfg.defaults()
	m := &CMachine{cfg: cfg}
	vm := vtime.NewMachine(cfg.Procs)
	m.ws = make([]*CW, cfg.Procs)
	for i := range m.ws {
		m.ws[i] = &CW{m: m, idx: i, pol: steal.New(cfg.Steal, i, cfg.Procs)}
	}
	vm.Run(func(p *vtime.Proc) {
		w := m.ws[p.ID()]
		w.p = p
		if p.ID() == 0 {
			w.runChain(build(w))
		}
		backoff := uint64(16)
		for !m.rootDone {
			if s := w.popBottom(); s != nil {
				w.runChain(s)
				backoff = 16
				continue
			}
			v := w.nextVictim()
			ok := w.trySteal(v)
			w.pol.Observe(v.idx, ok)
			if ok {
				backoff = 16
				continue
			}
			w.St.ST += backoff
			p.Step(backoff)
			if backoff < cfg.IdleBackoffCap {
				backoff *= 2
			}
		}
	})
	res := CResult{Makespan: m.makespan, Workers: make([]Stats, len(m.ws))}
	for i, w := range m.ws {
		res.Workers[i] = w.St
		res.Total.add(&w.St)
		if w.maxDeque > res.MaxDeque {
			res.MaxDeque = w.maxDeque
		}
	}
	return res
}

// runChain drives a step chain until it hands control back.
func (w *CW) runChain(s CStep) {
	for s != nil {
		s = s(w)
	}
}

// Spawn makes the parent's continuation cont stealable and continues
// with the child (steal parent). Use as
// `return w.Spawn(&f.CFrame, f.step2, child.step0)`.
func (w *CW) Spawn(parent *CFrame, cont, child CStep) CStep {
	c := &w.m.cfg.Costs
	parent.pending++
	w.push(cont)
	w.St.Spawns++
	w.St.NA += c.SpawnPublic
	w.p.Step(c.SpawnPublic)
	return child
}

// Sync waits for the frame's outstanding children: continue with after
// if none, otherwise park the frame (its last returning child resumes
// it) and look for other ready work.
func (w *CW) Sync(f *CFrame, after CStep) CStep {
	if f.pending == 0 {
		return after
	}
	f.suspended = true
	f.resume = after
	return w.popBottom()
}

// Return marks the frame's function complete: notify the parent
// (waking it when this was the last child a sync waited on) and pick
// up the next ready continuation.
func (w *CW) Return(f *CFrame) CStep {
	c := &w.m.cfg.Costs
	p := f.parent
	if p == nil {
		w.m.rootDone = true
		w.m.makespan = w.p.Now()
		return nil
	}
	p.pending--
	if p.suspended && p.pending == 0 {
		p.suspended = false
		r := p.resume
		p.resume = nil
		w.St.JoinsStolen++
		w.St.NA += c.JoinStolen
		w.p.Step(c.JoinStolen)
		return r
	}
	return w.popBottom()
}

// push adds a ready continuation at the owner's end (lock occupancy
// per the ticket model; processor time is inside the profile costs).
func (w *CW) push(s CStep) {
	w.lockTicketC(&w.lockUntil, w.m.cfg.Costs.LockAcquire)
	w.deque = append(w.deque, s)
	if len(w.deque) > w.maxDeque {
		w.maxDeque = len(w.deque)
	}
}

// popBottom takes the youngest ready continuation, charging the
// fast-path continuation cost.
func (w *CW) popBottom() CStep {
	c := &w.m.cfg.Costs
	w.lockTicketC(&w.lockUntil, c.LockAcquire)
	n := len(w.deque)
	if n == 0 {
		return nil
	}
	s := w.deque[n-1]
	w.deque[n-1] = nil
	w.deque = w.deque[:n-1]
	w.St.JoinsInlinedPublic++
	w.St.NA += c.JoinPublic
	w.p.Step(c.JoinPublic)
	return s
}

// chargeProbeC charges a failed probe of victim with the topology's
// per-hop penalty (same model as the steal-child protocol).
func (w *CW) chargeProbeC(victim *CW) {
	cost := w.m.cfg.Costs.StealProbe +
		costmodel.RemoteProbePenalty*w.m.cfg.Topology.Hops(w.idx, victim.idx, len(w.m.ws))
	w.St.ST += cost
	w.p.Step(cost)
}

// trySteal takes the oldest continuation from victim and runs its
// chain, with the steal-child protocol's coherence and topology
// models.
func (w *CW) trySteal(victim *CW) bool {
	if victim == w {
		return false
	}
	c := &w.m.cfg.Costs
	w.St.StealAttempts++
	if len(victim.deque) == 0 {
		w.chargeProbeC(victim)
		return false
	}
	w.lockTicketC(&victim.lockUntil, c.LockAcquire+c.LockHold)
	if len(victim.deque) == 0 {
		w.chargeProbeC(victim)
		return false
	}
	s := victim.deque[0]
	copy(victim.deque, victim.deque[1:])
	victim.deque[len(victim.deque)-1] = nil
	victim.deque = victim.deque[:len(victim.deque)-1]

	cost := c.StealWork + costmodel.RemoteStealPenalty*w.m.cfg.Topology.Hops(w.idx, victim.idx, len(w.m.ws))
	now := w.p.Now()
	if now-victim.lastSteal < 2*c.StealWork {
		cost += c.StealWork / 2
	}
	if now-w.m.lastAny < c.StealWork/2 {
		cost += c.StealWork / 4
	}
	victim.lastSteal = now
	w.m.lastAny = now
	w.St.Steals++
	w.St.ST += cost
	w.p.Step(cost)
	w.runChain(s)
	return true
}

// lockTicketC is the fair ticket lock for the CPS engine (same model
// as the steal-child protocol's lockTicket).
func (w *CW) lockTicketC(l *uint64, occupy uint64) {
	now := w.p.Now()
	grant := now
	if *l > grant {
		grant = *l
		w.St.LockWaits++
	}
	*l = grant + occupy
	w.St.ST += grant - now
	w.p.WaitUntil(grant)
}

// nextVictim asks the worker's policy for the next victim (nil probe:
// probe cycles are charged explicitly in trySteal).
func (w *CW) nextVictim() *CW {
	return w.m.ws[w.pol.Choose(nil)]
}
