package core

import (
	"fmt"
	"strings"
	"time"

	"gowool/internal/poolerr"
)

// WatchdogError is the failure a tripped stuck-run watchdog
// (Options.Watchdog) raises out of Pool.Run. The type lives in poolerr
// so the serving layer can name it without importing the scheduler.
type WatchdogError = poolerr.WatchdogError

// watchdogPoll panics with the watchdog's verdict if it has tripped.
// Blocked wait loops (joinSlow, leapfrog) call this periodically; the
// panic rides the existing abort machinery (the poison record, Run
// re-raises), so a stuck Run fails instead of hanging. A no-op (one
// nil pointer load) when the watchdog is disarmed or quiet.
func (p *Pool) watchdogPoll() {
	if e := p.wdErr.Load(); e != nil {
		p.life.Poison(e)
		panic(e)
	}
}

// watchdogLoop is the stuck-run detector (armed by Options.Watchdog).
// Trip condition, checked every interval/4:
//
//   - the pool has a Run in flight, and
//   - the progress heartbeat has been flat for a full interval, and
//   - no worker is executing stolen work (a legitimately long-running
//     stolen leaf keeps counters quiescent but is not a hang), and
//   - some worker has been continuously blocked in a join for at least
//     a full interval.
//
// A long-running task on worker 0 with nothing blocked never trips: the
// pool being merely quiescent-but-legal is exactly the false positive
// the blocked-worker requirement exists to avoid.
//
// It reads only atomics (bot, publicLimit, counters, stamps), so a trip
// snapshot is race-clean; the optional trace section reuses the
// documented-racy live Snapshot/StealMatrix accessors.
func (p *Pool) watchdogLoop(interval time.Duration) {
	// Capture the channels: Reset re-arms a tripped watchdog by
	// replacing wdStop/wdDone with fresh channels, and this (exited)
	// loop's deferred close must hit its own generation's channel.
	stop, done := p.wdStop, p.wdDone
	defer close(done)
	tick := interval / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	lastProgress := int64(-1)
	var quietSince time.Time
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if !p.life.Running() || !p.life.Healthy() {
			lastProgress = -1
			continue
		}
		now := time.Now()
		cur := p.progress.Load()
		busy := false
		for _, w := range p.workers {
			if w.execing.Load() != 0 && w.blockedSince.Load() == 0 {
				busy = true
				break
			}
		}
		if cur != lastProgress || busy {
			lastProgress = cur
			quietSince = now
			continue
		}
		if now.Sub(quietSince) < interval {
			continue
		}
		stuck := false
		for _, w := range p.workers {
			if bs := w.blockedSince.Load(); bs != 0 && now.Sub(time.Unix(0, bs)) >= interval {
				stuck = true
				break
			}
		}
		if !stuck {
			continue
		}
		e := &WatchdogError{Interval: interval, Bundle: p.watchdogBundle(now)}
		p.wdErr.Store(e)
		return
	}
}

// watchdogBundle renders the trip-time diagnostic dump.
func (p *Pool) watchdogBundle(now time.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "progress=%d parked=%d workers=%d\n", p.progress.Load(), p.ParkedWorkers(), len(p.workers))
	for _, w := range p.workers {
		state := "idle"
		if w.execing.Load() != 0 {
			state = "executing-stolen"
		}
		if bs := w.blockedSince.Load(); bs != 0 {
			state = fmt.Sprintf("blocked %v", now.Sub(time.Unix(0, bs)).Round(time.Millisecond))
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
