package resilience

import (
	"strings"
	"testing"
	"time"
)

// TestEstimatorShardDue: a shard's writer is due a sample on every
// request of a class until the shard holds MinSamples of it, then on
// one request in sampleEvery, counted per class; the estimate is trusted
// from the MinSamples-th sample on and not before.
func TestEstimatorShardDue(t *testing.T) {
	cases := []struct {
		name       string
		minSamples int
		// classes is the request sequence, one class per byte.
		classes string
	}{
		{"fresh-class-min1", 1, strings.Repeat("a", 1+3*sampleEvery)},
		{"fresh-class-min3", 3, strings.Repeat("a", 3+4*sampleEvery+5)},
		{"fresh-class-default", 0, strings.Repeat("a", 8+2*sampleEvery+1)},
		{"interleaved", 3, strings.Repeat("ab", 3+3*sampleEvery)},
		{"interleaved-uneven", 2, strings.Repeat("aab", 2+3*sampleEvery)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEstimator(EstimatorConfig{MinSamples: c.minSamples})
			minN := e.cfg.MinSamples
			sh := e.NewShard()
			seen := map[string]int{}
			for i := range len(c.classes) {
				class := c.classes[i : i+1]
				seen[class]++
				n := seen[class] // this request is the class's n-th
				want := n <= minN || (n-minN)%sampleEvery == 0
				if got := sh.Due(class); got != want {
					t.Fatalf("request %d (class %s, its %d-th): Due = %v, want %v", i, class, n, got, want)
				}
				if want {
					sh.Observe(class, 1000)
				}
				samples := minN + (n-minN)/sampleEvery
				if n < minN {
					samples = n
				}
				if _, ok := e.Estimate(class); ok != (samples >= minN) {
					t.Fatalf("request %d (class %s): trusted = %v with %d samples, MinSamples %d", i, class, ok, samples, minN)
				}
				if got := sh.classes[class].samples.Load(); got != int64(samples) {
					t.Fatalf("request %d (class %s): %d samples, want %d", i, class, got, samples)
				}
			}
		})
	}
}

// TestBreakerShardSuccessSince: SuccessSince's cached path counts what
// Success counts. Two breakers on one clock take the same steps, one
// shard through Success(origin.Add(d)), the other through
// SuccessSince(origin, d), and their Health must agree after every
// step. Each success of a step marked cached must find its reading
// inside the bounds the shard cached, and each of any other step outside
// them, so every step takes the path it names.
func TestBreakerShardSuccessSince(t *testing.T) {
	type step struct {
		advance time.Duration // clock advance before the step
		at      time.Duration // reading, relative to the clock
		succ    int           // successes at the reading
		fail    int           // Record(false) on both breakers
		probes  int           // probes admitted and succeeded
		cached  bool          // the reading is inside the shard's cached epoch
		direct  bool          // both shards count through Success
		want    bool          // what the successes report
	}
	// testBreaker: 4 buckets of 250ms, MinSamples 10, 100ms cooldown,
	// 2 probes.
	cases := []struct {
		name  string
		steps []step
	}{
		{"one-epoch", []step{
			{succ: 1, want: true},
			{succ: 2, cached: true, want: true},
			{advance: 50 * time.Millisecond, succ: 4, cached: true, want: true},
			{advance: 199 * time.Millisecond, succ: 2, cached: true, want: true},
		}},
		{"next-epoch", []step{
			{advance: 100 * time.Millisecond, succ: 1, want: true},
			{succ: 1, cached: true, want: true},
			{advance: 150 * time.Millisecond, succ: 1, want: true}, // epoch 1, exactly at its start
			{succ: 2, cached: true, want: true},
			{advance: 249 * time.Millisecond, succ: 1, cached: true, want: true},
			{advance: time.Millisecond, succ: 1, want: true}, // epoch 2
			{advance: 500 * time.Millisecond},                // epoch 4: 0 out
			{advance: 250 * time.Millisecond},                // epoch 5: 1 out, 2 in
		}},
		{"jump-past-the-ring", []step{
			{succ: 1, want: true},
			{succ: 4, cached: true, want: true},
			{advance: 5*time.Second + 100*time.Millisecond, succ: 1, want: true}, // epoch 20
			{succ: 1, cached: true, want: true},
			{advance: 100 * time.Millisecond, succ: 2, cached: true, want: true},
			{advance: time.Second, succ: 1, want: true}, // epoch 24: 20 out
			{advance: 2 * time.Second, succ: 1, want: true},
		}},
		{"before-start", []step{
			// A reading before the breaker's start counts in epoch 0, and
			// the cache holds epoch 0 from the start on.
			{at: -300 * time.Millisecond, succ: 2, want: true},
			{at: -time.Millisecond, succ: 1, want: true},
			{advance: 200 * time.Millisecond, succ: 2, cached: true, want: true},
			{advance: 50 * time.Millisecond, succ: 1, want: true}, // epoch 1
			{at: -time.Second, succ: 1, want: true},               // epoch 0 again
		}},
		{"reset-in-cached-epoch", []step{
			{advance: 260 * time.Millisecond, succ: 1, want: true}, // epoch 1, 10ms in
			{succ: 4, cached: true, want: true},
			{fail: 10},
			{succ: 1, cached: true, want: false}, // open
			{advance: 120 * time.Millisecond, probes: 2},
			{succ: 3, cached: true, want: true}, // base excludes the five
			{advance: 100 * time.Millisecond, succ: 1, cached: true, want: true},
		}},
		{"success-between", []step{
			// A Success on the shard empties its cache, so a later
			// SuccessSince in the old epoch, whose word now counts
			// epoch 5, takes the slow path.
			{advance: 260 * time.Millisecond, succ: 1, want: true}, // epoch 1
			{succ: 1, cached: true, want: true},
			{advance: time.Second, succ: 1, direct: true, want: true}, // epoch 5, the same word
			{at: -time.Second, succ: 1, want: true},                   // epoch 1 again
		}},
		{"open-refuses", []step{
			{succ: 1, want: true},
			{succ: 1, cached: true, want: true},
			{fail: 10},
			{succ: 2, cached: true, want: false},
			{advance: 50 * time.Millisecond, succ: 1, cached: true, want: false},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clk := newFakeClock()
			slow, fast := testBreaker(clk), testBreaker(clk)
			ss, fs := slow.NewShard(), fast.NewShard()
			origin := clk.now().Add(-7 * time.Second)
			for i, s := range c.steps {
				clk.advance(s.advance)
				reading := clk.now().Add(s.at)
				d := reading.Sub(origin)
				for j := 0; j < s.succ; j++ {
					if s.direct {
						if a, b := ss.Success(reading), fs.Success(reading); a != s.want || b != s.want {
							t.Fatalf("step %d: Success %v and %v, want %v", i, a, b, s.want)
						}
						continue
					}
					if in := d >= fs.lo && d < fs.hi; in != s.cached {
						t.Fatalf("step %d: reading %v inside the cached bounds [%v, %v) = %v, want %v", i, d, fs.lo, fs.hi, in, s.cached)
					}
					a, b := ss.Success(reading), fs.SuccessSince(origin, d)
					if a != s.want || b != s.want {
						t.Fatalf("step %d: Success %v, SuccessSince %v, want %v", i, a, b, s.want)
					}
				}
				for _, b := range []*Breaker{slow, fast} {
					for j := 0; j < s.fail; j++ {
						b.Record(false)
					}
					for j := 0; j < s.probes; j++ {
						if ok, probe := b.Allow(); !ok || !probe {
							t.Fatalf("step %d: probe %d not admitted", i, j)
						}
					}
					for j := 0; j < s.probes; j++ {
						b.ProbeDone(true)
					}
				}
				if hs, hf := slow.Health(), fast.Health(); hs != hf {
					t.Fatalf("step %d: Health through Success %+v, through SuccessSince %+v", i, hs, hf)
				}
			}
		})
	}
}

// successSink keeps BenchmarkSuccessPath's results alive.
var successSink bool

// BenchmarkSuccessPath prices a successful attempt's resilience
// bookkeeping in a served request (DESIGN.md §16.1, *Ledger, one
// stamp*), in ns/op:
//
//   - success-add: BreakerShard.Success with the time.Time that
//     origin.Add builds from a since-origin stamp, the uncached path;
//   - success-cached: BreakerShard.SuccessSince inside the epoch of the
//     shard's last success, what a closed breaker's success costs;
//   - observe: EstimatorShard.Observe, paid by a sampled request;
//   - due: EstimatorShard.Due, paid by every request.
func BenchmarkSuccessPath(b *testing.B) {
	br := NewBreaker(BreakerConfig{}, nil)
	origin := time.Now()
	d := time.Since(origin)
	e := NewEstimator(EstimatorConfig{})
	b.Run("success-add", func(b *testing.B) {
		sh := br.NewShard()
		ok := true
		for i := 0; i < b.N; i++ {
			ok = sh.Success(origin.Add(d+time.Duration(i&1023))) && ok
		}
		successSink = ok
	})
	b.Run("success-cached", func(b *testing.B) {
		sh := br.NewShard()
		ok := true
		for i := 0; i < b.N; i++ {
			ok = sh.SuccessSince(origin, d+time.Duration(i&1023)) && ok
		}
		successSink = ok
	})
	b.Run("observe", func(b *testing.B) {
		sh := e.NewShard()
		for i := 0; i < b.N; i++ {
			sh.Observe("fib", time.Duration(300+i&63))
		}
	})
	b.Run("due", func(b *testing.B) {
		sh := e.NewShard()
		for range e.cfg.MinSamples {
			sh.Observe("fib", 300)
		}
		ok := false
		for i := 0; i < b.N; i++ {
			ok = sh.Due("fib") != ok
		}
		successSink = ok
	})
}
