package sched

import (
	"slices"

	"gowool/internal/wskit"
)

// Stats is the normalized counter set: the event vocabulary every
// backend shares (wskit.Counts, the paper's N_T and N_M among them),
// plus the counters with no cross-scheduler meaning in Extra under
// stable snake_case keys, so registry-driven tools can print everything
// a backend knows without hard-coding its Stats struct. Per backend:
//
//   - wool, woolgen (core): every Counts field; Backoffs are steals
//     aborted by the bot re-check. No Extra.
//   - chaselev: joins inline as JoinsInlinedPublic; Backoffs are owner
//     pops that lost the last-element CAS race to a thief. Extra:
//     wait_steals, allocs.
//   - locksched: joins inline as JoinsInlinedPublic; Backoffs stay 0
//     (a thief holds the victim's lock). No Extra.
//   - omp: a central pool has no steals or deque joins; only Spawns
//     moves. Extra: executed, wait_loops, chunks_run, max_queued,
//     lock_passes.
//   - gonative: the Go runtime exposes no counters (Caps.Stats false).
type Stats struct {
	wskit.Counts
	// Extra holds backend-specific counters under stable keys.
	Extra map[string]int64
}

// ExtraKeys returns the Extra keys in sorted order (stable printing).
func (s Stats) ExtraKeys() []string {
	keys := make([]string, 0, len(s.Extra))
	for k := range s.Extra {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
