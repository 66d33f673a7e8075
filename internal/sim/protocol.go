package sim

import "gowool/internal/costmodel"

// This file is the simulated steal-child protocol (spawn, join,
// trip-wire publication), and the steal and lock model both steal
// orders share. All state is plain data guarded by the vtime token;
// costs come from the machine's Profile.

// spawn pushes a task running fn on a.
func (w *W) spawn(fn taskFn, a args) {
	if w.morePublic {
		w.publishMore()
	}
	c := &w.m.cfg.Costs
	if w.top == len(w.tasks) {
		// Degrade to inline serial execution (serial elision): charge
		// the private-spawn cost, run the child now, and stash the
		// result for the matching Join to replay LIFO. Not counted in
		// Spawns — the replaying join is not counted either.
		w.chargeApp(c.SpawnPrivate)
		w.p.Step(c.SpawnPrivate)
		w.ovf = append(w.ovf, fn(w, a))
		w.St.OverflowInlined++
		return
	}
	t := &w.tasks[w.top]
	t.fn, t.args = fn, a
	t.thief = 0

	if w.m.cfg.Kind == KindCentral {
		// Central queue: the task is also registered globally, behind
		// the queue lock.
		t.state = sTask
		t.priv = false
		w.m.centralLock(w)
		w.m.central = append(w.m.central, t)
		w.top++
		w.St.Spawns++
		w.chargeApp(c.SpawnPublic)
		w.spanSpawn()
		w.p.Step(c.SpawnPublic)
		return
	}

	if w.top < w.publicLimit {
		t.priv = false
		t.state = sTask
		w.chargeApp(c.SpawnPublic)
		w.spanSpawn()
		w.p.Step(c.SpawnPublic)
	} else {
		t.priv = true
		t.state = sEmpty
		w.chargeApp(c.SpawnPrivate)
		w.spanSpawn()
		w.p.Step(c.SpawnPrivate)
	}
	w.top++
	w.St.Spawns++
}

// Join resolves the most recently spawned task of w and returns its
// result: inline it when still present, otherwise wait out the thief
// under the kind's policy.
func (w *W) Join() int64 {
	if n := len(w.ovf); n != 0 {
		// Overflow-elided spawn: replay its stored result, strictly
		// younger than anything on the stack. Charged like a private
		// join; not counted in the join counters (its spawn was not
		// counted in Spawns).
		c := &w.m.cfg.Costs
		res := w.ovf[n-1]
		w.ovf = w.ovf[:n-1]
		w.chargeApp(c.JoinPrivate)
		w.p.Step(c.JoinPrivate)
		return res
	}
	// Note: top == bot does NOT mean "no matching spawn" — when the
	// youngest task was stolen, bot has already passed its slot while
	// top still reserves it. Only top == 0 is a true imbalance.
	if w.top == 0 {
		panic("sim: join without matching spawn")
	}
	c := &w.m.cfg.Costs
	t := &w.tasks[w.top-1]

	if w.m.cfg.Kind == KindCentral {
		return w.joinCentral(t)
	}

	if t.priv {
		// Private fast path: no synchronization.
		w.top--
		t.priv = false
		w.St.JoinsInlinedPrivate++
		w.chargeApp(c.JoinPrivate)
		w.spanJoinStart()
		w.p.Step(c.JoinPrivate)
		res := t.fn(w, t.args)
		w.spanJoinEnd()
		return res
	}

	// Lock systems: the owner takes its own lock to join, waiting out
	// any thief currently holding it.
	if c.UsesLock {
		w.acquireOwnLock()
	}

	if t.state == sTask {
		t.state = sEmpty
		w.top--
		w.St.JoinsInlinedPublic++
		w.notePublicInline()
		w.chargeApp(c.JoinPublic)
		w.spanJoinStart()
		w.p.Step(c.JoinPublic)
		res := t.fn(w, t.args)
		w.spanJoinEnd()
		return res
	}

	// Stolen: pay the victim-side sync cost, then wait under the wait
	// policy. top stays put (the slot is reserved until resolution).
	w.St.JoinsStolen++
	w.chargeApp(c.JoinStolen)
	w.p.Step(c.JoinStolen)
	thief := w.m.ws[t.thief]
	w.poll(t.done, func() bool {
		var ok bool
		if w.m.cfg.Kind == KindDeque {
			// TBB-like: unrestricted stealing while blocked.
			ok = w.stealAny(modeLA)
		} else {
			// Wool and the lock ladder: leapfrog off the thief.
			ok = w.trySteal(thief, modeLA)
		}
		if ok {
			w.St.LeapSteals++
		}
		// A failed try that finds the task done ends the wait
		// without backing off.
		return ok || t.done()
	}, &w.St.LF)
	w.top--
	w.bot--
	return t.res
}

// joinCentral is the OpenMP-style join: wait for this child, helping
// by executing arbitrary queued tasks (untied taskwait semantics).
func (w *W) joinCentral(t *STask) int64 {
	w.poll(t.done, func() bool {
		got := w.centralPop()
		if got == nil {
			return false
		}
		mode := w.mode
		if got != t {
			w.mode = modeLA
			w.St.LeapSteals++
		}
		w.runTask(got)
		w.mode = mode
		return true
	}, &w.St.LF)
	c := &w.m.cfg.Costs
	w.St.JoinsStolen++
	w.chargeApp(c.JoinStolen)
	w.p.Step(c.JoinStolen)
	w.top--
	return t.res
}

// privatizeRun is the number of consecutive inlined public joins after
// which the owner pulls the public boundary back down — core's
// constant of the same name.
const privatizeRun = 16

// notePublicInline implements the public→private pull-down of the
// revocable cut-off (KindDirectStack with PrivateTasks).
func (w *W) notePublicInline() {
	cfg := &w.m.cfg
	if !cfg.PrivateTasks || cfg.Kind != KindDirectStack {
		return
	}
	w.inlineRun++
	if w.inlineRun >= privatizeRun {
		w.inlineRun = 0
		if newPL := w.top + cfg.InitialPublic; newPL < w.publicLimit {
			w.publicLimit = newPL
			w.St.Privatizations++
		}
	}
}

// publishMore answers a trip-wire notification.
func (w *W) publishMore() {
	w.morePublic = false
	w.inlineRun = 0
	cfg := &w.m.cfg
	newPL := w.publicLimit + cfg.PublishAmount
	if newPL > len(w.tasks) {
		newPL = len(w.tasks)
	}
	for i := w.publicLimit; i < newPL && i < w.top; i++ {
		t := &w.tasks[i]
		if t.priv {
			t.priv = false
			t.state = sTask
		}
	}
	w.publicLimit = newPL
	w.St.Publications++
	w.p.Step(w.m.cfg.Costs.SpawnPublic) // publication is a handful of stores
}

// chargeProbe charges a failed probe of victim: the profile's
// StealProbe plus the topology's per-hop penalty (reading a remote
// shard's indices misses to another node's cache). victim == nil is
// the central queue — no victim distance.
func (w *W) chargeProbe(victim *W) {
	cost := w.m.cfg.Costs.StealProbe
	if victim != nil {
		cost += costmodel.RemoteProbePenalty * w.m.cfg.Topology.Hops(w.idx, victim.idx, len(w.m.ws))
	}
	w.St.ST += cost
	w.p.Step(cost)
}

// stealAny tries the victim the worker's policy chooses, in the given
// mode, and reports the outcome back to the policy. The policy gets no
// probe: trySteal charges probe cycles itself, so policies run on
// Observe feedback alone.
func (w *W) stealAny(mode int) bool {
	v := w.m.ws[w.pol.Choose(nil)]
	ok := w.trySteal(v, mode)
	w.pol.Observe(v.idx, ok)
	return ok
}

// trySteal attempts one steal from victim, running the stolen work to
// completion on w in the given mode. Returns whether anything was
// stolen.
func (w *W) trySteal(victim *W, mode int) bool {
	if victim == w {
		return false
	}
	w.St.StealAttempts++

	switch {
	case w.m.parent:
		// Cilk++ thieves peek at the victim's deque before they take
		// its lock: the peek rung of Figure 4.
		return w.tryStealLocked(victim, mode, LockPeek)
	case w.m.cfg.Kind == KindLock:
		return w.tryStealLocked(victim, mode, w.m.cfg.LockStrategy)
	case w.m.cfg.Kind == KindCentral:
		got := w.centralPop()
		if got == nil {
			w.chargeProbe(nil)
			return false
		}
		// centralPop counted and charged the steal, as it does for a
		// helping join's pop.
		prev := w.mode
		w.mode = mode
		w.runTask(got)
		w.mode = prev
		return true
	default: // KindDirectStack, KindDeque
		if !victim.stealable() {
			w.chargeProbe(victim)
			return false
		}
		w.steal(victim, mode)
		return true
	}
}

// lockTicket models a fair (FIFO) mutex in virtual time: the acquirer
// atomically reserves the next free slot of the lock and waits for its
// grant time. Reservation-then-wait is starvation-free — exactly the
// eventual fairness a real futex provides — which matters because an
// unfair model lets leapfrogging owners hammer a victim's lock forever
// ahead of the victim's own join. occupy is how long the slot holds
// the lock (acquire/release plus the critical section).
func (w *W) lockTicket(l *uint64, occupy uint64) {
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

// tryStealLocked is the Figure 4 ladder: how a thief approaches the
// victim's lock under strategy.
func (w *W) tryStealLocked(victim *W, mode int, strategy LockStrategy) bool {
	c := &w.m.cfg.Costs
	switch strategy {
	case LockPeek, LockTryLock:
		// Peek at the indices without the lock first.
		if !victim.stealable() {
			w.chargeProbe(victim)
			return false
		}
		if strategy == LockTryLock && w.p.Now() < victim.lockUntil {
			// Contended: abort rather than wait.
			w.St.LockWaits++
			w.chargeProbe(victim)
			return false
		}
	case LockBase:
		// Take the lock immediately after selecting the victim.
	}

	// Acquire the victim's lock: a steal occupies it for the acquire
	// plus the hold window, whether or not anything is stealable —
	// locking victims that turn out to be empty is precisely where the
	// base strategy loses to peek in Figure 4. The acquisition's own
	// processor time is part of the profile's steal/probe costs; the
	// ticket contributes only the queueing delay.
	w.lockTicket(&victim.lockUntil, c.LockAcquire+c.LockHold)

	if !victim.stealable() {
		w.chargeProbe(victim)
		return false
	}
	w.steal(victim, mode)
	return true
}

// stealable reports whether a thief would find work on w: a public,
// unclaimed descriptor at bot, or a ready continuation.
func (w *W) stealable() bool {
	if w.m.parent {
		return len(w.deque) != 0
	}
	return w.bot < w.top && w.bot < w.publicLimit && w.tasks[w.bot].state == sTask
}

// steal takes victim's oldest work — the descriptor at bot, or the
// continuation at the head of the deque — pays for the steal and runs
// the work on w in the given mode. victim must be stealable.
func (w *W) steal(victim *W, mode int) {
	prev := w.mode
	w.mode = mode
	w.stealsFrom[victim.idx]++
	if w.m.parent {
		s := victim.deque[0]
		copy(victim.deque, victim.deque[1:])
		victim.deque[len(victim.deque)-1] = nil
		victim.deque = victim.deque[:len(victim.deque)-1]
		w.chargeSteal(victim)
		w.runChain(s)
	} else {
		t := &victim.tasks[victim.bot]
		w.claim(t, victim)
		w.chargeSteal(victim)
		w.runTask(t)
	}
	w.mode = prev
}

// claim marks t stolen by w and advances the victim's bot — the atomic
// (token-held) analogue of the CAS-claim plus bot update.
func (w *W) claim(t *STask, victim *W) {
	t.state = sStolen
	t.thief = int32(w.p.ID())
	victim.bot++
	// Trip wire: a steal at or past the wire asks the owner to publish.
	cfg := &w.m.cfg
	if cfg.PrivateTasks && cfg.Kind == KindDirectStack &&
		victim.bot > victim.publicLimit-cfg.TripDistance {
		victim.morePublic = true
	}
}

// chargeSteal pays a successful steal from victim, under both steal
// orders: the profile's StealWork, the topology's per-hop penalty (the
// stolen work's cache lines cross the interconnect), and the coherence
// model's penalties. A central-queue pop is charged by centralPop.
func (w *W) chargeSteal(victim *W) {
	c := &w.m.cfg.Costs
	cost := c.StealWork + costmodel.RemoteStealPenalty*w.m.cfg.Topology.Hops(w.idx, victim.idx, len(w.m.ws))
	now := w.p.Now()
	// Coherence model: a victim whose pool was robbed moments ago (or
	// a machine with steal traffic in flight) serves the stolen work
	// from a contended cache line.
	if now-victim.lastSteal < 2*c.StealWork {
		cost += c.StealWork / 2
	}
	if now-w.m.lastAnySteal < c.StealWork/2 {
		cost += c.StealWork / 4
	}
	victim.lastSteal = now
	w.m.lastAnySteal = now
	w.St.Steals++
	w.St.ST += cost
	w.p.Step(cost)
}

// runTask executes t's function on w and marks it done.
func (w *W) runTask(t *STask) {
	t.res = t.fn(w, t.args)
	t.state = sDone
}

// done reports whether t's execution has finished.
func (t *STask) done() bool { return t.state == sDone }

// centralPop takes the newest task from the central queue (behind the
// queue lock), or nil.
func (w *W) centralPop() *STask {
	w.m.centralLock(w)
	q := w.m.central
	n := len(q)
	if n == 0 {
		return nil
	}
	t := q[n-1]
	q[n-1] = nil
	w.m.central = q[:n-1]
	t.state = sStolen
	t.thief = int32(w.p.ID())
	w.St.Steals++
	c := &w.m.cfg.Costs
	w.St.ST += c.StealWork
	w.p.Step(c.StealWork)
	return t
}

// centralLock acquires the central queue lock (fair ticket model):
// every push and pop serializes through it. The lock's processor time
// is inside the profile's spawn/steal costs; the ticket adds only the
// queueing delay under contention.
func (m *Machine) centralLock(w *W) {
	w.lockTicket(&m.centralLockUntil, m.cfg.Costs.LockAcquire)
}

// acquireOwnLock is the owner's side of its own lock: the join lock of
// the lock ladder, and the steal-parent deque's push and pop. The
// owner occupies the lock only for the brief index comparison (its
// processor time is part of JoinPublic — the paper's 77-cycle base
// join includes its lock).
func (w *W) acquireOwnLock() {
	c := &w.m.cfg.Costs
	w.lockTicket(&w.lockUntil, c.LockAcquire)
}
