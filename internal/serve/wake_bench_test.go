package serve

import (
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkWakeFromSpinningSubmitter measures what an open-loop
// dispatch is made of (DESIGN.md §16.1): how long a goroutine parked
// on a one-slot channel, as a lane goroutine is, takes to run its first
// instruction after a submitter that never blocks woke it. The
// signaller owns its thread and only ever spins, like bench's
// serve-open generator; it idles 500 µs between signals so the other P
// has gone to sleep.
//
//   - runnext: the signaller sends the token, the lane's wake for joined
//     traffic. The readied goroutine sits in the signaller's runnext
//     slot; the P that wakes up has to steal it from a P that is
//     running, which the Go scheduler delays (it backs off with
//     usleep(3), stretched by the kernel's timer slack, before it takes
//     runnext).
//   - bumped: the signaller readies a second parked goroutine right
//     after, which moves the first from runnext to the local run queue,
//     where a thief takes it at once. A measurement device that sizes
//     the back-off's share, not a proposal.
//   - timer: Reset(0) on a stopped time.AfterFunc timer whose function
//     sends the token, the lane's wake for polled traffic
//     (lane.chooseWake). The P that wakes up runs the expired timer
//     before it would steal runnext, and the token readies the goroutine
//     on that P.
//
// The reported wake-p50-ns, wake-p90-ns and wake-p99-ns are percentiles
// of the signal-to-first-instruction time; ns/op is dominated by the
// 500 µs idle and means nothing.
func BenchmarkWakeFromSpinningSubmitter(b *testing.B) {
	if runtime.NumCPU() < 2 {
		b.Skip("needs a second CPU for the P that wakes up")
	}
	for _, name := range []string{"runnext", "bumped", "timer"} {
		b.Run(name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()

			wake := make(chan struct{}, 1) // one slot: the signaller never blocks
			bump := make(chan struct{}, 1)
			defer close(wake)
			defer close(bump)
			tm := time.AfterFunc(time.Hour, func() { wake <- struct{}{} })
			tm.Stop()
			var sent, latency atomic.Int64 // ns since epoch; ns
			go func() {
				for range wake {
					latency.Store(max(1, int64(time.Since(epoch))-sent.Load()))
				}
			}()
			go func() {
				for range bump {
				}
			}()

			samples := make([]int64, 0, b.N)
			for i := 0; i < b.N; i++ {
				for end := time.Now().Add(500 * time.Microsecond); time.Now().Before(end); {
				}
				latency.Store(0)
				sent.Store(int64(time.Since(epoch)))
				switch name {
				case "timer":
					tm.Reset(0)
				case "bumped":
					wake <- struct{}{}
					bump <- struct{}{}
				default:
					wake <- struct{}{}
				}
				for latency.Load() == 0 {
				}
				samples = append(samples, latency.Load())
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			for _, q := range []struct {
				unit string
				at   int
			}{{"wake-p50-ns", 50}, {"wake-p90-ns", 90}, {"wake-p99-ns", 99}} {
				b.ReportMetric(float64(samples[len(samples)*q.at/100]), q.unit)
			}
		})
	}
}
