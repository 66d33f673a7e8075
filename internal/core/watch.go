package core

// The deadline watch: the owner polls its own request's context
// (DESIGN.md §16.2). A context callback runs only once some goroutine
// gets a P, and on a host whose Ps all run requests that is after the
// request has ended. So the party that needs the answer asks: worker 0
// reads the clock on its own slow path, every period spawns, and aborts
// the pool itself when the context has ended. Nothing else runs, nothing
// is allocated, and an unarmed pool pays the compare its spawn already
// made.

import (
	"context"
	"math"
	"time"
)

// watchInterval is the time the poll period aims to put between two
// polls, and watchGrowth the most the period may grow by at one poll.
// The period starts at one spawn, so a deadline already past is seen at
// the first; it then grows toward watchInterval's worth of spawns at the
// live spawn rate, and shrinks at once when spawns slow down.
const (
	watchInterval = 10 * time.Microsecond
	watchGrowth   = 4
)

// epoch is the origin of the watch's monotonic clock readings.
var epoch = time.Now()

// watch is what worker 0 polls during a Run armed by Pool.Watch.
type watch struct {
	ctx      context.Context
	done     <-chan struct{}
	deadline time.Duration // since epoch; math.MaxInt64 without one
	period   int64         // spawns from one poll to the next
	gt       time.Duration // live time per spawn (the paper's G_T); 0 before the first sample
	at       time.Duration // since epoch, at the last poll
	spawns   int64         // Stats.Spawns at the last poll
	polls    int64         // polls since arming
}

// Watch arms worker 0 to poll ctx during the next Run: when ctx is done,
// or the clock has passed its deadline, the owner calls Abort at its next
// poll, which falls every few spawns (at most about watchInterval apart
// at the live spawn rate) and in the wait loops of a blocked join
// (waitPoll, watchdog.go). A run with no spawn left after that completes
// normally. Watch(nil) disarms it; so does a ctx that can never end. Only
// the goroutine that calls Run calls Watch, between runs.
func (p *Pool) Watch(ctx context.Context) { p.workers[0].arm(ctx) }

// arm sets the watch and the two spawn gates it drives: pollAt, where
// push next polls, and fastUntil, where the generated spawn stops taking
// the fast path — pollAt on an untraced pool, 0 on a traced one, whose
// every spawn takes the generic path anyway.
func (w *Worker) arm(ctx context.Context) {
	w.wt = watch{deadline: math.MaxInt64, period: 1}
	if ctx != nil {
		w.wt.done = ctx.Done()
		if dl, ok := ctx.Deadline(); ok {
			w.wt.deadline = dl.Sub(epoch)
		}
	}
	w.pollAt = math.MaxInt64
	if w.wt.done != nil || w.wt.deadline != math.MaxInt64 {
		// The first poll falls on the next spawn and finds no spawn to
		// time since here, so it starts the clock.
		w.wt.ctx, w.wt.spawns = ctx, w.stats.Spawns
		w.pollAt = w.stats.Spawns
	}
	w.setFastUntil()
}

func (w *Worker) setFastUntil() {
	w.fastUntil = 0
	if w.genFast {
		w.fastUntil = w.pollAt
	}
}

// poll is push's every-period check: expire, then resize the period from
// the spawns made since the last poll. The G_T estimate jumps to a slower
// sample at once and halves its distance to a faster one, so a burst of
// quick spawns after a long leaf does not stretch the period over the
// next leaves.
func (w *Worker) poll() {
	wt := &w.wt
	now := time.Since(epoch)
	w.expire(now)
	if n := w.stats.Spawns - wt.spawns; n > 0 {
		g := (now - wt.at) / time.Duration(n)
		if g >= wt.gt {
			wt.gt = g
		} else {
			wt.gt = (wt.gt + g) / 2
		}
		wt.period = min(max(int64(watchInterval/max(wt.gt, 1)), 1), wt.period*watchGrowth)
	}
	wt.at, wt.spawns = now, w.stats.Spawns
	w.pollAt = w.stats.Spawns + wt.period
	w.setFastUntil()
}

// expire aborts the pool when the watched context has ended by now. The
// reason is ctx.Err(), or context.DeadlineExceeded when the clock passed
// the deadline before the context's own timer fired: either way the run
// unwinds as a cancellation, not a failure.
func (w *Worker) expire(now time.Duration) {
	wt := &w.wt
	wt.polls++
	var reason error
	if now >= wt.deadline {
		if reason = wt.ctx.Err(); reason == nil {
			reason = context.DeadlineExceeded
		}
	} else {
		select {
		case <-wt.done:
			reason = wt.ctx.Err()
		default:
			return
		}
	}
	w.pool.Abort(reason)
}
