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

func (wp *woolPool) RunRec(j RecJob) int64 {
	d := BuildRec(core.Define1, j)
	return wp.p.Run(func(w *core.Worker) int64 {
		var total int64
		for r := int64(0); r < reps(j.Reps); r++ {
			total += d.Call(w, j.Root)
		}
		return total
	})
}

func (wp *woolPool) RunRange(j RangeJob) int64 {
	d := BuildRange(core.Define2, j)
	return wp.p.Run(func(w *core.Worker) int64 {
		var total int64
		for r := int64(0); r < reps(j.Reps); r++ {
			total += d.Call(w, 0, j.N)
		}
		return total
	})
}
