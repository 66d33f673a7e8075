package main

import (
	"math/rand/v2"
	"time"

	"gowool/internal/core"
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/stress"
)

// The two batch workloads time root Pool.Run calls the way the paper
// times its kernels: the same operation on the serial reference, on a
// 1-worker pool and on a 2-worker pool, the three interleaved in
// rounds so that drift in the machine hits all of them alike. Only the
// order inside a round comes from the seed; the operation is fixed.

// Sizes. The driver's cap cut the number of rounds, never these.
const (
	fibN = 30 // no cut-off: 1 346 268 tasks per Run

	stressHeight = 6   // 64 leaves, 63 spawns per region
	stressIters  = 256 // the paper's small leaf: ~20 us per region serially
	// stressChunk regions run back to back in one configuration before
	// the round moves on: long enough (~10 ms) that switching pools is
	// noise, short enough that a round still sees one machine state.
	stressChunk = 500

	batchWarmRounds = 3
)

type batchSpec struct {
	chunk  int                      // operations per configuration per round
	serial func() int64             // the serial reference
	root   func(*core.Worker) int64 // the same operation as a Run root
	tasks  int64                    // spawns per operation (N_T)
}

var fibTree = batchSpec{
	chunk:  1,
	serial: func() int64 { return fibw.Serial(fibN) },
	root:   func(w *core.Worker) int64 { return fibw.CallFib(w, fibN) },
	tasks:  fibw.Tasks(fibN),
}

func stressRegions() batchSpec {
	tree := stress.NewWool()
	return batchSpec{
		chunk:  stressChunk,
		serial: func() int64 { return stress.Serial(stressHeight, stressIters) },
		root:   func(w *core.Worker) int64 { return tree.Call(w, stressHeight, stressIters) },
		tasks:  1<<stressHeight - 1,
	}
}

// batch is a batch workload set up: two warm pools and the expected
// result.
type batch struct {
	batchSpec
	want   int64
	p1, p2 *core.Pool
	order  *rand.Rand

	// Span plumbing of a traced measure: the root closure handed to
	// Run stamps its own first and last instruction, so the core.run
	// span's self time is what Run adds around the root.
	rootIn, rootOut int64
	tracedRoot      func(*core.Worker) int64
}

func setupBatch(spec batchSpec, seed uint64) *batch {
	b := &batch{
		batchSpec: spec,
		want:      spec.serial(),
		p1:        core.NewPool(core.Options{Workers: 1, PrivateTasks: true}),
		p2:        core.NewPool(core.Options{Workers: 2, PrivateTasks: true}),
		order:     rand.New(rand.NewPCG(seed, 0xba7c4)),
	}
	b.tracedRoot = func(w *core.Worker) int64 {
		b.rootIn = now()
		v := b.root(w)
		b.rootOut = now()
		return v
	}
	var warm measurement
	for i := 0; i < batchWarmRounds; i++ {
		b.round(&warm, nil, newHist(), &meter{}, new(batchTimes))
	}
	return b
}

func (b *batch) close() {
	b.p1.Close()
	b.p2.Close()
}

// batchTimes collects each round's mean time per operation, in ns, in
// each configuration.
type batchTimes struct {
	tS, t1, t2 []float64
}

// round runs the three configurations once each, in seeded order.
func (b *batch) round(m *measurement, tr *spanBuf, lat2 *hist, mt *meter, bt *batchTimes) {
	for _, cfg := range b.order.Perm(3) {
		switch cfg {
		case 0:
			t0 := now()
			for i := 0; i < b.chunk; i++ {
				m.check(b.serial() == b.want)
			}
			bt.tS = append(bt.tS, float64(now()-t0)/float64(b.chunk))
		case 1:
			t0 := now()
			b.runChunk(m, tr, b.p1, 1, nil)
			bt.t1 = append(bt.t1, float64(now()-t0)/float64(b.chunk))
		case 2:
			mt.start()
			t0 := now()
			b.runChunk(m, tr, b.p2, 2, lat2)
			wall := now() - t0
			mt.stop(int64(b.chunk), 0)
			bt.t2 = append(bt.t2, float64(wall)/float64(b.chunk))
		}
	}
}

func (b *batch) runChunk(m *measurement, tr *spanBuf, p *core.Pool, lane int32, lat *hist) {
	root := b.root
	if tr != nil {
		root = b.tracedRoot
	}
	for i := 0; i < b.chunk; i++ {
		t0 := now()
		v := p.Run(root)
		t1 := now()
		m.check(v == b.want)
		if lat != nil {
			lat.record(t1 - t0)
		}
		if tr != nil && tr.room(2) {
			run := tr.add("core.run", t0, t1, -1, int32(m.attempted), lane)
			tr.add("root", b.rootIn, b.rootOut, run, int32(m.attempted), lane)
		}
	}
}

func (b *batch) measure(d time.Duration, traced bool, _ values) *measurement {
	m := &measurement{}
	var tr *spanBuf
	if traced {
		tr = newSpanBuf(spanCapacity)
		m.spans = []*spanBuf{tr}
	}
	lat2 := newHist()
	var mt meter
	var bt batchTimes
	before := b.p2.Stats()
	for end := now() + int64(d); now() < end; {
		b.round(m, tr, lat2, &mt, &bt)
	}
	st := b.p2.Stats()
	runs := float64(lat2.n)

	ratio := func(num, den []float64) []float64 {
		out := make([]float64, len(num))
		for i := range num {
			out[i] = num[i] / den[i]
		}
		return out
	}
	tS := median(bt.tS)
	m.head = headline{
		LatP50Us:      lat2.quantile(0.50) / 1e3,
		OpsPerS:       1e9 / median(bt.t2),
		OverheadRatio: median(ratio(bt.t1, bt.tS)),
		CPUUsPerOp:    median(mt.cpuPerOp),
	}
	per := func(after, before int64) float64 { return float64(after-before) / runs }
	steals := per(st.Steals, before.Steals)
	attempts := per(st.StealAttempts, before.StealAttempts)
	m.layer = values{
		"core.spawns":           per(st.Spawns, before.Spawns),
		"core.steals":           steals,
		"core.steal_attempts":   attempts,
		"core.backoffs":         per(st.Backoffs, before.Backoffs),
		"core.leap_steals":      per(st.LeapSteals, before.LeapSteals),
		"core.joins_stolen":     per(st.JoinsStolen, before.JoinsStolen),
		"core.publications":     per(st.Publications, before.Publications),
		"core.privatizations":   per(st.Privatizations, before.Privatizations),
		"core.parks":            per(st.Parks, before.Parks),
		"core.wakes":            per(st.Wakes, before.Wakes),
		"core.overflow_inlined": per(st.OverflowInlined, before.OverflowInlined),
		"core.g_t_ns":           tS / float64(b.tasks),
		"bench.speedup":         median(ratio(bt.t1, bt.t2)),
		"bench.t_serial_us":     tS / 1e3,
		"bench.t1_us":           median(bt.t1) / 1e3,
		"bench.lat_p99_us":      lat2.quantile(0.99) / 1e3,
		"bench.allocs_per_op":   mt.allocsPerOp(),
		"bench.samples":         runs,
	}
	if attempts > 0 {
		m.layer["core.steal_hit_ratio"] = steals / attempts
	}
	if steals > 0 {
		m.layer["core.g_l_us"] = tS / steals / 1e3
	}
	if tr != nil {
		if run := selfTimes(tr.spans)["core.run"]; run.count > 0 {
			m.layer["core.run_self_ns"] = float64(run.self) / float64(run.count)
		}
	}
	return m
}
