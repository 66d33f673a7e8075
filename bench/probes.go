package main

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"gowool/internal/core"
	"gowool/internal/gen/ports"
	"gowool/internal/resilience"
	"gowool/internal/sched"
	"gowool/internal/serve"
	"gowool/internal/steal"
	"gowool/internal/trace"
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/stress"
)

// The probes time one layer at a time through its exported functions,
// with nothing of the layers above it running. They are the same in
// every workload's traced run, so a layer's number can be set beside
// any end-to-end number.

// probeGroups is the number of equal shares the probes' time is cut
// into.
const probeGroups = 14

// repeat calls sample until the budget is spent, at least atLeast
// times, and returns the samples' median.
func repeat(budget time.Duration, atLeast int, sample func() float64) float64 {
	var xs []float64
	for end := now() + int64(budget); len(xs) < atLeast || now() < end; {
		xs = append(xs, sample())
	}
	return median(xs)
}

// perOp times n calls of op together and returns ns per call.
func perOp(n int, op func()) float64 {
	t0 := now()
	for i := 0; i < n; i++ {
		op()
	}
	return float64(now()-t0) / float64(n)
}

func runProbes(budget time.Duration) (values, error) {
	share := budget / probeGroups
	v := values{}
	probePairs(v, share)
	v["core.fib_generic_run_us"] = probeFibGeneric(share)
	v["core.run_empty_ns"] = probeRunEmpty(core.Options{Workers: 1, PrivateTasks: true}, share/2)
	v["core.run_empty_p2_ns"] = probeRunEmpty(core.Options{Workers: 2, PrivateTasks: true}, share/2)
	v["core.steal_warm_us"] = probeStealWarm(share)
	if err := probeParked(v, share); err != nil {
		return nil, err
	}
	v["steal.choose_ns"] = probeStealChoose(share / 2)
	idle, err := probeIdleCPU(share)
	if err != nil {
		return nil, err
	}
	v["core.idle_cpu_ms_per_s"] = idle
	if err := probeAbort(v, share); err != nil {
		return nil, err
	}
	probeSched(v, share)
	if err := probeServeSides(v, 2*share); err != nil {
		return nil, err
	}
	if err := probeServeLifecycle(v, share/2); err != nil {
		return nil, err
	}
	probeResilience(v, share)
	v["trace.on_cost_ratio"] = probeTraceCost(share)
	return v, nil
}

// pairDepth places the measured pair past the public prefix of a
// private-task pool, on the plain-stores path; pairBatch is the
// SpawnNoopN window.
const (
	pairDepth = 4
	pairBatch = 16
	pairLoop  = 100_000
)

var genericNoop = core.Define1("noop", func(w *core.Worker, x int64) int64 { return x })

// probePairs is L0, the paper's Table II in Go: one spawn+join pair on
// one worker, generic task definition against generated port, private
// against public descriptor, and the batched window.
func probePairs(v values, budget time.Duration) {
	ladder := func(private bool, pairs int, pair func(*core.Worker)) float64 {
		p := core.NewPool(core.Options{Workers: 1, PrivateTasks: private})
		defer p.Close()
		depth := 0
		if private {
			depth = pairDepth
		}
		var ns float64
		p.Run(func(w *core.Worker) int64 {
			for i := 0; i < depth; i++ {
				ports.SpawnNoop(w, 0)
			}
			ns = repeat(budget/5, 3, func() float64 {
				t0 := now()
				for i := 0; i < pairLoop; i++ {
					pair(w)
				}
				return float64(now()-t0) / float64(pairLoop*pairs)
			})
			for i := 0; i < depth; i++ {
				ports.JoinNoop(w)
			}
			return 0
		})
		return ns
	}
	generic := func(w *core.Worker) {
		genericNoop.Spawn(w, 1)
		genericNoop.Join(w)
	}
	generated := func(w *core.Worker) {
		ports.SpawnNoop(w, 1)
		ports.JoinNoop(w)
	}
	v["core.pair_private_ns"] = ladder(true, 1, generic)
	v["core.pair_public_ns"] = ladder(false, 1, generic)
	v["gen.pair_private_ns"] = ladder(true, 1, generated)
	v["gen.pair_public_ns"] = ladder(false, 1, generated)
	v["gen.pair_batch_ns"] = ladder(true, pairBatch, func(w *core.Worker) {
		ports.SpawnNoopN(w, 0, pairBatch)
		ports.JoinNoopN(w, pairBatch)
	})
}

// probeFibGeneric runs fib-tree's input through the generic TaskDef1
// instead of the generated port: the rung between the two.
func probeFibGeneric(budget time.Duration) float64 {
	p := core.NewPool(core.Options{Workers: 2, PrivateTasks: true})
	defer p.Close()
	fib := fibw.NewWool()
	root := func(w *core.Worker) int64 { return fib.Call(w, fibN) }
	p.Run(root)
	return repeat(budget, 3, func() float64 { return perOp(1, func() { p.Run(root) }) }) / 1e3
}

// probeRunEmpty is L2: Pool.Run of a root that returns at once, on a
// warm pool.
func probeRunEmpty(opts core.Options, budget time.Duration) float64 {
	p := core.NewPool(opts)
	defer p.Close()
	root := func(*core.Worker) int64 { return 0 }
	return repeat(budget, 3, func() float64 { return perOp(10_000, func() { p.Run(root) }) })
}

// stealProbe publishes one task from inside a Run; once returns the ns
// until the thief executes the task's first instruction.
type stealProbe struct {
	stamp atomic.Int64
	task  *core.TaskDef1
}

func newStealProbe() *stealProbe {
	sp := new(stealProbe)
	sp.task = core.Define1("stealprobe", func(*core.Worker, int64) int64 {
		sp.stamp.Store(now())
		return 0
	})
	return sp
}

func (sp *stealProbe) once(w *core.Worker) float64 {
	sp.stamp.Store(0)
	t0 := now()
	sp.task.Spawn(w, 0)
	for sp.stamp.Load() == 0 {
		runtime.Gosched()
	}
	lat := sp.stamp.Load() - t0
	sp.task.Join(w)
	return float64(lat)
}

// probeStealWarm is L1 with the thief spinning: MaxIdleSleep < 0 keeps
// it in its steal loop, so the time is the steal protocol's alone.
func probeStealWarm(budget time.Duration) float64 {
	p := core.NewPool(core.Options{Workers: 2, MaxIdleSleep: -1})
	defer p.Close()
	sp := newStealProbe()
	var us float64
	p.Run(func(w *core.Worker) int64 {
		sp.once(w)
		us = repeat(budget, 100, func() float64 { return sp.once(w) }) / 1e3
		return 0
	})
	return us
}

// parkedPoolIdle makes the probes' pools park soon after they go idle
// (16 x 50 us of sleeping), so a parked thief can be had every few ms.
const parkedPoolIdle = 50 * time.Microsecond

func waitParked(p *core.Pool, n int) error {
	for end := now() + int64(5*time.Second); p.ParkedWorkers() < n; {
		if now() > end {
			return errors.New("probe: the pool's idle workers never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// probeParked is L1 with the thief confirmed parked: the steal, and a
// small region, each pay the wake-up first.
func probeParked(v values, budget time.Duration) error {
	p := core.NewPool(core.Options{Workers: 2, MaxIdleSleep: parkedPoolIdle})
	defer p.Close()
	sp := newStealProbe()
	tree := stress.NewWool()
	var err error
	park := func() bool {
		if err == nil {
			err = waitParked(p, 1)
		}
		return err == nil
	}
	v["core.steal_parked_us"] = repeat(budget/2, 10, func() float64 {
		var lat float64
		if park() {
			p.Run(func(w *core.Worker) int64 { lat = sp.once(w); return 0 })
		}
		return lat
	}) / 1e3
	v["core.region_from_parked_us"] = repeat(budget/2, 10, func() float64 {
		if !park() {
			return 0
		}
		return perOp(1, func() { stress.RunWool(p, tree, 4, 64, 1) })
	}) / 1e3
	return err
}

// probeStealChoose times the victim-selection policy the pools use by
// default: one Choose and one Observe.
func probeStealChoose(budget time.Duration) float64 {
	pol := steal.New(core.Options{Workers: 2}.Defaults().Steal, 0, 2)
	empty := func(int) bool { return false }
	return repeat(budget, 3, func() float64 {
		return perOp(100_000, func() { pol.Observe(pol.Choose(empty), false) })
	})
}

// probeIdleCPU reads the process's CPU time over a stretch in which a
// 2-worker pool has nothing to do and its idle worker has parked.
func probeIdleCPU(window time.Duration) (float64, error) {
	p := core.NewPool(core.Options{Workers: 2})
	defer p.Close()
	p.Run(func(w *core.Worker) int64 { return fibw.CallFib(w, 16) })
	if err := waitParked(p, 1); err != nil {
		return 0, err
	}
	c0 := cpuTime(syscall.RUSAGE_SELF)
	time.Sleep(window)
	return (cpuTime(syscall.RUSAGE_SELF) - c0).Seconds() * 1e3 / window.Seconds(), nil
}

var errProbeAbort = errors.New("bench: abort probe")

// probeAbort times what a cancellation costs below the server: from
// Pool.Abort to the Run of the slow-class tree unwinding, and the
// Reset that returns the pool to service. The pool is a lane's: one
// worker, public tasks.
func probeAbort(v values, budget time.Duration) error {
	p := core.NewPool(core.Options{Workers: 1})
	defer p.Close()
	tree := stress.NewWool()
	var started atomic.Bool
	root := func(w *core.Worker) int64 {
		started.Store(true)
		return tree.Call(w, slowHeight, slowIters)
	}
	var resets []float64
	var err error
	v["core.abort_to_return_us"] = repeat(budget, 10, func() float64 {
		started.Store(false)
		unwound := make(chan int64)
		go func() {
			defer func() {
				recover() // the *poolerr.AbortError the aborted Run re-raises
				unwound <- now()
			}()
			p.Run(root)
		}()
		for !started.Load() {
			runtime.Gosched()
		}
		time.Sleep(200 * time.Microsecond) // well into the tree
		t0 := now()
		p.Abort(errProbeAbort)
		lat := <-unwound - t0
		r0 := now()
		if e := p.Reset(); e != nil {
			err = e
		}
		resets = append(resets, float64(now()-r0))
		return float64(lat)
	}) / 1e3
	v["core.reset_us"] = median(resets) / 1e3
	return err
}

// probeSched is L3: RunRec on a warm one-worker pool, of a job whose
// root is a leaf (all port, no work) and of the two served jobs, on the
// generic port and on the generated one.
func probeSched(v values, budget time.Duration) {
	leafJob := sched.RecJob{
		Name:  "leaf",
		Leaf:  func(int64) (int64, bool) { return 1, true },
		Split: func(n int64) (int64, int64) { return n, n },
	}
	runRec := func(backend string, j sched.RecJob, n int) (ns, allocs float64) {
		s, _ := sched.Lookup(backend)
		pool := s.NewPool(sched.Options{Workers: 1})
		defer pool.Close()
		pool.RunRec(j)
		var objs uint64
		var ops int
		ns = repeat(budget/5, 3, func() float64 {
			o0, _ := heapAllocs()
			t := perOp(n, func() { pool.RunRec(j) })
			o1, _ := heapAllocs()
			objs += o1 - o0
			ops += n
			return t
		})
		return ns, float64(objs) / float64(ops)
	}
	v["sched.runrec_leaf_ns"], v["sched.runrec_leaf_allocs"] = runRec("wool", leafJob, 10_000)
	v["sched.gen_runrec_leaf_ns"], _ = runRec("woolgen", leafJob, 10_000)
	v["sched.runrec_fib4_ns"], _ = runRec("wool", fibw.Job(tinyFibN, 1), 10_000)
	fib16, _ := runRec("wool", fibw.Job(healthyFibN, 1), 100)
	v["sched.runrec_fib16_us"] = fib16 / 1e3

	// What the port adds to a bare Run on the same kind of pool (a
	// lane's: one worker, public tasks).
	v["sched.port_ns"] = v["sched.runrec_leaf_ns"] - probeRunEmpty(core.Options{Workers: 1}, budget/5)
}

// tinyLoop is one closed-loop client sending the tiny job to a one-lane
// server for d; it records each latency in lat and returns the heap
// allocations per request.
func tinyLoop(srv *serve.Server, ctx context.Context, job serve.Job, want int64, lat *hist, d time.Duration) (allocs float64, err error) {
	o0, _ := heapAllocs()
	n := 0
	for end := now() + int64(d); now() < end; n++ {
		t0 := now()
		tk, err := srv.Submit(ctx, "", job)
		if err != nil {
			return 0, err
		}
		if v, err := tk.Wait(); err != nil || v != want {
			return 0, errors.New("probe: tiny request returned a wrong result")
		}
		lat.record(now() - t0)
	}
	o1, _ := heapAllocs()
	return float64(o1-o0) / float64(n), nil
}

// probeServeSides prices two things the tiny closed loop does not pay
// or cannot switch off, as differences of medians on one lane, one
// client: a cancellable context against context.Background (the
// AfterFunc arming), and the resilience layer on against all four of
// its Disable switches.
func probeServeSides(v values, budget time.Duration) error {
	on, err := serve.New(serve.Options{Workers: 1, LaneWidth: 1})
	if err != nil {
		return err
	}
	defer on.Close()
	off, err := serve.New(serve.Options{Workers: 1, LaneWidth: 1, Resilience: resilience.Options{
		DisableBreaker: true, DisableDeadline: true, DisableRetry: true, DisableQuarantine: true}})
	if err != nil {
		return err
	}
	defer off.Close()
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()

	job, want := serve.Rec(fibw.Job(tinyFibN, 1)), fibw.Serial(tinyFibN)
	sides := []struct {
		srv    *serve.Server
		ctx    context.Context
		lat    *hist
		allocs []float64
	}{
		{srv: on, ctx: context.Background(), lat: newHist()},
		{srv: on, ctx: cancellable, lat: newHist()},
		{srv: off, ctx: context.Background(), lat: newHist()},
	}
	const passes = 4 // the three sides interleaved, so drift hits all alike
	for pass := 0; pass < passes; pass++ {
		for i := range sides {
			s := &sides[i]
			// Off the main goroutine, which is locked to its thread: a
			// client there could not share a thread with the lane.
			var a float64
			var err error
			done := make(chan struct{})
			go func() {
				defer close(done)
				a, err = tinyLoop(s.srv, s.ctx, job, want, s.lat, budget/(passes*time.Duration(len(sides))))
			}()
			<-done
			if err != nil {
				return err
			}
			s.allocs = append(s.allocs, a)
		}
	}
	base := sides[0].lat.quantile(0.5)
	v["serve.ctx_arm_ns"] = sides[1].lat.quantile(0.5) - base
	v["serve.ctx_arm_allocs"] = median(sides[1].allocs) - median(sides[0].allocs)
	v["resilience.on_cost_ns"] = base - sides[2].lat.quantile(0.5)
	return nil
}

// probeServeLifecycle times building and closing the tiny closed loop's
// server.
func probeServeLifecycle(v values, budget time.Duration) error {
	var closes []float64
	var err error
	v["serve.new_ms"] = repeat(budget, 3, func() float64 {
		t0 := now()
		srv, e := serve.New(serve.Options{Workers: 2, LaneWidth: 1})
		t1 := now()
		if e != nil {
			err = e
			return 0
		}
		srv.Close()
		closes = append(closes, float64(now()-t1))
		return float64(t1 - t0)
	}) / 1e6
	v["serve.close_ms"] = median(closes) / 1e6
	return err
}

// probeResilience times the state machines a Submit and a finished
// request go through, each in isolation with its default config.
func probeResilience(v values, budget time.Duration) {
	const loop = 100_000
	br := resilience.NewBreaker(resilience.BreakerConfig{}, nil)
	v["resilience.breaker_pair_ns"] = repeat(budget/3, 3, func() float64 {
		return perOp(loop, func() { br.Allow(); br.Record(true) })
	})
	est := resilience.NewEstimator(resilience.EstimatorConfig{})
	v["resilience.estimator_pair_ns"] = repeat(budget/3, 3, func() float64 {
		return perOp(loop, func() { est.Unmeetable("fib", time.Second); est.Observe("fib", time.Microsecond) })
	})
	// OnSuccess pays back the token Next takes, so the bucket never
	// runs dry and Next stays on its granting path.
	rt := resilience.NewRetrier(resilience.RetryConfig{}, 1)
	v["resilience.retrier_next_ns"] = repeat(budget/3, 3, func() float64 {
		return perOp(loop, func() { rt.Next(1); rt.OnSuccess() })
	})
}

// probeTraceCost is fib-tree's 2-worker Run with a wooltrace tracer
// attached over the same without: what switching the scheduler's own
// event rings on costs.
func probeTraceCost(budget time.Duration) float64 {
	plain := core.NewPool(core.Options{Workers: 2, PrivateTasks: true})
	defer plain.Close()
	traced := core.NewPool(core.Options{Workers: 2, PrivateTasks: true, Trace: trace.New(2, 0)})
	defer traced.Close()
	root := func(w *core.Worker) int64 { return fibw.CallFib(w, fibN) }
	var off, on []float64
	repeat(budget, 3, func() float64 {
		off = append(off, perOp(1, func() { plain.Run(root) }))
		on = append(on, perOp(1, func() { traced.Run(root) }))
		return 0
	})
	return median(on) / median(off)
}
