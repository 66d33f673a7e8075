package sched

import (
	"gowool/internal/core"
	"gowool/internal/steal"
)

func init() { register(woolSched{}, 0) }

// woolSched registers the paper's direct task stack (internal/core).
type woolSched struct{}

func (woolSched) Name() string { return "wool" }
func (woolSched) Blurb() string {
	return "direct task stack (the paper's scheduler): descriptors inline in a per-worker array, thief/victim sync on the descriptor state word, private tasks, leapfrogging"
}
func (woolSched) Caps() Caps {
	return Caps{
		Steal:        "CAS on the task descriptor's state word; steal child, oldest first",
		StealChild:   true,
		PrivateTasks: true,
		Leapfrog:     true,
		Stats:        true,
		TaskDefs:     true,
		Trace:        true,
		Chaos:        true,
		Watchdog:     true,
		// The direct task stack takes one task per steal: descriptors
		// live in the victim's stack and are claimed individually.
		StealPolicies: steal.Policies(),
		StealAmounts:  []string{steal.AmountOne},
		// *core.Pool implements Abort/Poisoned/Reset, so the serving
		// layer can cancel requests mid-flight (woolgen inherits this
		// Caps copy and with it the flag).
		Serve: true,
	}
}

func (woolSched) NewPool(o Options) Pool {
	return &woolPool{p: core.NewPool(core.Options{
		Workers:        o.Workers,
		StackSize:      o.StackSize,
		StrictOverflow: o.StrictOverflow,
		PrivateTasks:   o.PrivateTasks,
		MaxIdleSleep:   o.MaxIdleSleep,
		Trace:          o.Trace,
		Chaos:          o.Chaos,
		Watchdog:       o.Watchdog,
		Steal:          o.Steal,
	})}
}

type woolPool struct{ p *core.Pool }

func (wp *woolPool) Workers() int { return wp.p.Workers() }
func (wp *woolPool) Close()       { wp.p.Close() }
func (wp *woolPool) Native() any  { return wp.p }
func (wp *woolPool) ResetStats()  { wp.p.ResetStats() }

func (wp *woolPool) Stats() Stats {
	s := wp.p.Stats()
	return Stats{
		Spawns:        s.Spawns,
		JoinsInlined:  s.JoinsInlinedPublic + s.JoinsInlinedPrivate,
		JoinsStolen:   s.JoinsStolen,
		Steals:        s.Steals,
		StealAttempts: s.StealAttempts,
		Backoffs:      s.Backoffs,
		Extra: map[string]int64{
			"joins_inlined_private": s.JoinsInlinedPrivate,
			"joins_inlined_public":  s.JoinsInlinedPublic,
			"leap_steals":           s.LeapSteals,
			"publications":          s.Publications,
			"privatizations":        s.Privatizations,
			"retained_steals":       s.RetainedSteals,
			"parks":                 s.Parks,
			"wakes":                 s.Wakes,
			"overflow_inlined":      s.OverflowInlined,
		},
	}
}

// woolRec and woolRange are jobs prepared for the generic task-port
// layer (port.go): the task definition is built once, on only enters
// the pool. They are small values and on's root closure stays on the
// stack, so RunRec / RunRange — prepare, run, discard, all of it
// inlined — cost what building the definition costs and nothing more;
// only PrepareRec / PrepareRange box the value, once per job.
type woolRec struct {
	d          *core.TaskDef1
	root, reps int64
}

type woolRange struct {
	d       *core.TaskDef2
	n, reps int64
}

func prepareWoolRec(j RecJob) woolRec {
	return woolRec{BuildRec(core.Define1, j), j.Root, reps(j.Reps)}
}

func prepareWoolRange(j RangeJob) woolRange {
	return woolRange{BuildRange(core.Define2, j), j.N, reps(j.Reps)}
}

func (pt woolRec) on(p *core.Pool) int64 {
	return p.Run(func(w *core.Worker) int64 {
		var total int64
		for r := int64(0); r < pt.reps; r++ {
			total += pt.d.Call(w, pt.root)
		}
		return total
	})
}

func (pt woolRange) on(p *core.Pool) int64 {
	return p.Run(func(w *core.Worker) int64 {
		var total int64
		for r := int64(0); r < pt.reps; r++ {
			total += pt.d.Call(w, 0, pt.n)
		}
		return total
	})
}

func (pt woolRec) Run(p Pool) int64   { return pt.on(p.Native().(*core.Pool)) }
func (pt woolRange) Run(p Pool) int64 { return pt.on(p.Native().(*core.Pool)) }

func (woolSched) PrepareRec(j RecJob) Prepared     { return prepareWoolRec(j) }
func (woolSched) PrepareRange(j RangeJob) Prepared { return prepareWoolRange(j) }

func (wp *woolPool) RunRec(j RecJob) int64     { return prepareWoolRec(j).on(wp.p) }
func (wp *woolPool) RunRange(j RangeJob) int64 { return prepareWoolRange(j).on(wp.p) }
