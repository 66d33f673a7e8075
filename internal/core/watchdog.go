package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"gowool/internal/poolerr"
)

// WatchdogError is the failure a tripped stuck-run watchdog
// (Options.Watchdog) raises out of Pool.Run. The type lives in poolerr
// so the serving layer can name it without importing the scheduler.
type WatchdogError = poolerr.WatchdogError

// waitPoll is the poll of a blocked join's wait loops (joinSlow,
// leapfrog), every 64 spins. No spawn advances a watch's period there,
// so an armed owner waiting on a thief reads the clock here to notice
// its context ending; and the watchdog is this check, made by the
// blocked worker itself (checkStuck). One clock read serves both; a
// pool neither watched nor armed with a watchdog reads none.
func (w *Worker) waitPoll() {
	watched, armed := w.pollAt != math.MaxInt64, w.pool.opts.Watchdog > 0
	if !watched && !armed {
		return
	}
	now := time.Since(epoch)
	if watched {
		w.expire(now)
	}
	if armed {
		w.checkStuck(now)
	}
}

// checkStuck is the stuck-run watchdog (Options.Watchdog). The blocked
// worker finds the run stuck when, as it sees it at now:
//
//   - it has been blocked in a join for at least the interval, and
//   - the sum of the workers' progress counters (steal commits,
//     stolen-task completions, trip-wire publications) has stood still
//     for the interval — the counters only grow, so two equal readings
//     mean nothing moved between them — and
//   - no worker is executing stolen work outside a wait loop (a
//     legitimately long-running stolen leaf keeps the counters still
//     but is not a hang).
//
// A long-running task with nothing blocked never trips: only a blocked
// worker asks. On a trip the verdict is stored (the first finder's
// wins), the pool poisoned and the verdict raised from the wait loop,
// so the Run fails instead of spinning forever; every other blocked
// worker raises the same verdict at its next poll. The verdict is
// raised where it is found, so it cannot reach the pool's next Run:
// Reset clears it with the poison.
func (w *Worker) checkStuck(now time.Duration) {
	p := w.pool
	e := p.wdErr.Load()
	if e == nil {
		if !p.life.Healthy() {
			return
		}
		sum, busy := int64(0), false
		for _, v := range p.workers {
			sum += v.progress.Load()
			busy = busy || v.execing.Load() != 0 && v.blockedSince.Load() == 0
		}
		if sum != w.wdSum || busy {
			w.wdSum, w.wdQuiet = sum, now
			return
		}
		interval := p.opts.Watchdog
		if now-w.wdQuiet < interval || now-time.Duration(w.blockedSince.Load()) < interval {
			return
		}
		e = &WatchdogError{Interval: interval, Bundle: p.watchdogBundle(now, sum)}
		if !p.wdErr.CompareAndSwap(nil, e) {
			e = p.wdErr.Load()
		}
	}
	p.life.Poison(e)
	panic(e)
}

// markBlocked stamps (on) or clears blockedSince on a pool armed with a
// watchdog, and writes nothing on one without.
func (w *Worker) markBlocked(on bool) {
	if w.pool.opts.Watchdog > 0 {
		var since int64
		if on {
			since = max(int64(time.Since(epoch)), 1)
		}
		w.blockedSince.Store(since)
	}
}

// noteProgress counts one progress event on a pool armed with a
// watchdog.
func (w *Worker) noteProgress() {
	if w.pool.opts.Watchdog > 0 {
		w.progress.Add(1)
	}
}

// watchdogBundle renders the trip-time diagnostic dump. It reads only
// atomics (bot, publicLimit, counters, stamps), so it is race-clean;
// the optional trace section reuses the documented-racy live
// Snapshot/StealMatrix accessors.
func (p *Pool) watchdogBundle(now time.Duration, progress int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "progress=%d parked=%d workers=%d\n", progress, p.ParkedWorkers(), len(p.workers))
	for _, w := range p.workers {
		state := "idle"
		if w.execing.Load() != 0 {
			state = "executing-stolen"
		}
		if bs := w.blockedSince.Load(); bs != 0 {
			state = fmt.Sprintf("blocked %v", (now - time.Duration(bs)).Round(time.Millisecond))
		}
		fmt.Fprintf(&b, "worker %d: %s bot=%d publicLimit=%d morePublic=%v steals=%d attempts=%d backoffs=%d parks=%d\n",
			w.idx, state, w.bot.Load(), w.publicLimit.Load(), w.morePublic.Load(),
			w.steals.Load(), w.stealAttempts.Load(), w.backoffs.Load(), w.parks.Load())
	}
	if tr := p.opts.Trace; tr != nil {
		b.WriteString("steal matrix:\n")
		tr.StealMatrix().WriteText(&b)
		for i, evs := range tr.Snapshot() {
			if len(evs) > 8 {
				evs = evs[len(evs)-8:]
			}
			fmt.Fprintf(&b, "worker %d last events:", i)
			for _, ev := range evs {
				fmt.Fprintf(&b, " %v(%d,%d)", ev.Kind, ev.Arg, ev.Arg2)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
