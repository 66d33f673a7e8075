package serve

import (
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkWakeFromSpinningSubmitter measures what an open-loop
// dispatch is made of (DESIGN.md §16.1, ROADMAP item 3): how long a
// goroutine parked on a channel takes to run its first instruction
// after a submitter that never blocks readied it. The signaller owns
// its thread and only ever spins, like bench's serve-open generator; it
// idles 500 µs between signals so the other P has gone to sleep.
//
//   - runnext: the plain case. The readied goroutine sits in the
//     signaller's runnext slot; the P that wakes up has to steal it
//     from a P that is running, which the Go scheduler delays (it backs
//     off with usleep(3), stretched by the kernel's timer slack, before
//     it takes runnext).
//   - bumped: the signaller readies a second parked goroutine right
//     after, which moves the first from runnext to the local run queue,
//     where a thief takes it at once. A measurement device that sizes
//     the back-off's share, not a proposal.
//
// The reported wake-p50-ns is the median signal-to-first-instruction
// time; ns/op is dominated by the 500 µs idle and means nothing.
func BenchmarkWakeFromSpinningSubmitter(b *testing.B) {
	if runtime.NumCPU() < 2 {
		b.Skip("needs a second CPU for the P that wakes up")
	}
	for _, c := range []struct {
		name string
		bump bool
	}{{"runnext", false}, {"bumped", true}} {
		b.Run(c.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()

			signal := make(chan time.Time, 1) // one slot: the signaller never blocks
			bump := make(chan struct{}, 1)
			defer close(signal)
			defer close(bump)
			var latency atomic.Int64
			go func() {
				for sent := range signal {
					latency.Store(int64(time.Since(sent)))
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
				signal <- time.Now()
				if c.bump {
					bump <- struct{}{}
				}
				for latency.Load() == 0 {
				}
				samples = append(samples, latency.Load())
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			b.ReportMetric(float64(samples[len(samples)/2]), "wake-p50-ns")
		})
	}
}
