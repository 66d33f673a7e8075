package serve

import (
	"context"
	"testing"
	"time"
)

// clockSink keeps the readings of BenchmarkRequestClock alive.
var clockSink time.Duration

// BenchmarkRequestClock prices the clock reads a served request makes
// or used to make (DESIGN.md §16.1, *Ledger, one stamp*), in ns/op:
//
//   - since-epoch: time.Since(epoch), the monotonic offset every stamp of
//     a request is now: submit and attempt end on every request, service
//     start only on one the estimator samples (every request of a class
//     until a lane holds MinSamples of it, then one in 16);
//   - now: time.Now(), which reads the wall clock too, as serveOne's start
//     and the breaker's default clock did;
//   - until-deadline: time.Until on a context.WithTimeout deadline, what
//     deadline admission read before it measured from the submit stamp.
//
// A read a request no longer makes saves its row, and a time.Now turned
// into a time.Since saves the difference; on a host whose vDSO clock is
// cheap the rows, and the saving, shrink.
func BenchmarkRequestClock(b *testing.B) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	dl, _ := ctx.Deadline()
	for _, c := range []struct {
		name string
		read func() time.Duration
	}{
		{"since-epoch", func() time.Duration { return time.Since(epoch) }},
		{"now", func() time.Duration { return time.Duration(time.Now().UnixNano()) }},
		{"until-deadline", func() time.Duration { return time.Until(dl) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var sum time.Duration
			for i := 0; i < b.N; i++ {
				sum += c.read()
			}
			clockSink = sum
		})
	}
}
