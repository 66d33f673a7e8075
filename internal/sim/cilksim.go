package sim

// Steal-parent (continuation-stealing) execution on the same machine:
// the true Cilk execution order, complementing the cost-level
// approximation the experiment catalog uses for Cilk++ (KindLock with
// Cilk++ costs). Workloads are written as explicit continuation steps
// over cactus frames, the shape Cilk++'s compiler generates, so a spawn
// runs the child immediately and thieves take the parent's
// continuation from the head of a locked deque. Victim
// choice, the back-off ladder, the lock and the steal charge are the
// steal-child protocol's (protocol.go).
//
// Cost accounting: SpawnPublic is charged at each spawn, JoinPublic at
// each continuation pop (the fast-path pair whose sum is the paper's
// "inlined" overhead), JoinStolen when a suspended sync is resumed by
// its last returning child, and the shared steal charge per successful
// steal.

// CStep is one unit of a continuation-passing task function: do some
// work, return the next step (or hand control back with nil).
type CStep func(w *W) CStep

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

// RunCilkSim executes a CPS workload to completion under steal-parent
// scheduling at cfg.Procs virtual processors. build constructs the
// root frame and first step; it runs on processor 0 with the token
// held, so it may freely touch shared workload state. The root's value
// is the workload's to keep: Result.Value stays zero.
func RunCilkSim(cfg Config, build func(w *W) CStep) Result {
	return newMachine(cfg, true).run(func(w *W) { w.runChain(build(w)) })
}

// runChain drives a step chain until it hands control back.
func (w *W) runChain(s CStep) {
	for s != nil {
		s = s(w)
	}
}

// Spawn makes the parent's continuation cont stealable and continues
// with the child (steal parent). Use as
// `return w.Spawn(&f.CFrame, f.step2, child.step0)`.
func (w *W) Spawn(parent *CFrame, cont, child CStep) CStep {
	c := &w.m.cfg.Costs
	parent.pending++
	w.push(cont)
	w.St.Spawns++
	w.chargeApp(c.SpawnPublic)
	w.p.Step(c.SpawnPublic)
	return child
}

// Sync waits for the frame's outstanding children: continue with after
// if none, otherwise park the frame (its last returning child resumes
// it) and look for other ready work.
func (w *W) Sync(f *CFrame, after CStep) CStep {
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
func (w *W) Return(f *CFrame) CStep {
	c := &w.m.cfg.Costs
	p := f.parent
	if p == nil {
		w.m.makespan = w.p.Now()
		w.m.vm.SetStop()
		return nil
	}
	p.pending--
	if p.suspended && p.pending == 0 {
		p.suspended = false
		r := p.resume
		p.resume = nil
		w.St.JoinsStolen++
		w.chargeApp(c.JoinStolen)
		w.p.Step(c.JoinStolen)
		return r
	}
	return w.popBottom()
}

// push adds a ready continuation at the owner's end, under the owner's
// lock.
func (w *W) push(s CStep) {
	w.acquireOwnLock()
	w.deque = append(w.deque, s)
	w.m.maxDeque = max(w.m.maxDeque, len(w.deque))
}

// popBottom takes the youngest ready continuation, charging the
// fast-path continuation cost.
func (w *W) popBottom() CStep {
	c := &w.m.cfg.Costs
	w.acquireOwnLock()
	n := len(w.deque)
	if n == 0 {
		return nil
	}
	s := w.deque[n-1]
	w.deque[n-1] = nil
	w.deque = w.deque[:n-1]
	w.St.JoinsInlinedPublic++
	w.chargeApp(c.JoinPublic)
	w.p.Step(c.JoinPublic)
	return s
}
