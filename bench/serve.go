package main

import (
	"context"
	"errors"
	"maps"
	"math/rand/v2"
	"sync"
	"time"

	"gowool/internal/resilience"
	"gowool/internal/sched"
	"gowool/internal/serve"
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/stress"
)

// Sizes of the serve workloads; serve-open's are in serve_open.go.
const (
	tinyFibN    = 4  // ~0.3 us of work: the request is all overhead
	healthyFibN = 16 // ~50 us of service on one lane

	// The slow class must be joins by the thousand: an abort is seen on
	// a 32-join countdown, so a tree of a few dozen joins finishes
	// before it can be cancelled. 16 383 joins, ~5 ms, against a 1 ms
	// deadline.
	slowHeight   = 14
	slowIters    = 256
	slowDeadline = time.Millisecond
	slowOneIn    = 4
	healthyLimit = time.Second

	// Warm-up requests per set-up: enough that the set-up time is tens of
	// ms and so steadier than the scheduler's own jitter.
	tinyWarmRequests = 50_000 // ~1.2 us each
	openWarmRequests = 2000   // ~60 us each
	mixWarmRequests  = 400    // one in four takes ~1.2 ms
	// closedSlices cuts a closed-loop run into slices; between two the
	// serial reference is timed, so that it sees the same machine.
	closedSlices    = 10
	serialSamples   = 8
	serialSampleLen = 500 * time.Microsecond
)

// jobProbe stamps the first and the last Leaf call of a request from
// inside the closures the benchmark hands to the scheduler: the first
// call is where dispatch ends and service starts, the last is the
// root's last instruction but for the returns. One probe serves one
// request at a time; the lane runs it on a single worker, and the
// ticket's done channel orders its writes before the client's reads.
type jobProbe struct {
	calls, total int
	first, last  int64
	// log, when non-nil, keeps every request's stamps in execution
	// order (the open loop has many requests in flight). Entry k is
	// written before request k's ticket is done; logged is the lane's
	// own count and the reader never looks at it.
	log    [][2]int64
	logged int
}

// wrap returns j with the probe in its Leaf closure. total is the
// number of Leaf calls one run makes.
func (p *jobProbe) wrap(j sched.RecJob) sched.RecJob {
	var n int
	counting := j
	counting.Leaf = func(x int64) (int64, bool) { n++; return j.Leaf(x) }
	counting.Serial()
	p.total = n

	leaf := j.Leaf
	j.Leaf = func(x int64) (int64, bool) {
		if p.calls == 0 {
			p.first = now()
		}
		p.calls++
		v, ok := leaf(x)
		if p.calls == p.total {
			p.last = now()
			p.calls = 0
			if p.logged < len(p.log) {
				p.log[p.logged] = [2]int64{p.first, p.last}
				p.logged++
			}
		}
		return v, ok
	}
	return j
}

// requestSpans are the histograms of the four spans that tile a traced
// request, Submit call to Wait return.
type requestSpans struct {
	total, submit, dispatch, service, finish *hist
}

func newRequestSpans() *requestSpans {
	return &requestSpans{newHist(), newHist(), newHist(), newHist(), newHist()}
}

func (r *requestSpans) merge(o *requestSpans) {
	r.total.merge(o.total)
	r.submit.merge(o.submit)
	r.dispatch.merge(o.dispatch)
	r.service.merge(o.service)
	r.finish.merge(o.finish)
}

// record files one request. t0 is the Submit call, t1 its return,
// first/last the probe's stamps, t3 the Wait return. The lane can
// reach the first Leaf before Submit has returned to the client (it
// runs on the other core), so the submit span ends at whichever comes
// first and the four always tile [t0, t3].
func (r *requestSpans) record(tr *spanBuf, req, lane int32, t0, t1, first, last, t3 int64) {
	t1 = min(t1, first)
	r.total.record(t3 - t0)
	r.submit.record(t1 - t0)
	r.dispatch.record(first - t1)
	r.service.record(last - first)
	r.finish.record(t3 - last)
	if tr.room(5) {
		root := tr.add("request", t0, t3, -1, req, lane)
		tr.add("serve.submit", t0, t1, root, req, lane)
		tr.add("serve.dispatch", t1, first, root, req, lane)
		tr.add("sched.service", first, last, root, req, lane)
		tr.add("serve.finish", last, t3, root, req, lane)
	}
}

// layer turns the span histograms into the serve.* span metrics.
// direct is the same job run with RunRec and no server (ns): the traced
// requests' median less direct is what the serve layer adds, and the
// median less the four span medians is what the spans fail to explain.
func (r *requestSpans) layer(direct float64) values {
	latP50 := r.total.quantile(0.5)
	sum := r.submit.quantile(0.5) + r.dispatch.quantile(0.5) + r.service.quantile(0.5) + r.finish.quantile(0.5)
	return values{
		"serve.submit_call_ns":  r.submit.quantile(0.5),
		"serve.dispatch_p50_us": r.dispatch.quantile(0.5) / 1e3,
		"serve.dispatch_p99_us": r.dispatch.quantile(0.99) / 1e3,
		"serve.service_p50_us":  r.service.quantile(0.5) / 1e3,
		"serve.finish_p50_us":   r.finish.quantile(0.5) / 1e3,
		"serve.residual_ns":     latP50 - sum,
		"serve.overhead_ns":     latP50 - direct,
		"serve.overhead_ratio":  latP50 / direct,
	}
}

// serveStats checks the identities of Server.Stats once every ticket
// has been waited for, and returns the counters as metrics. attempted
// is the number of Submit calls the clients made.
func serveStats(m *measurement, srv *serve.Server, before serve.TenantStats, attempted int64) values {
	st := srv.Stats().Tenants[0]
	sub := st.Submitted - before.Submitted
	rej := st.Rejected - before.Rejected
	done := st.Completed - before.Completed
	canc := st.Cancelled - before.Cancelled
	fail := st.Failed - before.Failed
	m.require(sub+rej == attempted, "serve stats: submitted %d + rejected %d != attempted %d", sub, rej, attempted)
	m.require(sub == done+canc+fail, "serve stats: submitted %d != completed %d + cancelled %d + failed %d", sub, done, canc, fail)
	m.require(st.Pending == 0, "serve stats: %d still pending", st.Pending)
	return values{
		"serve.submitted": float64(sub),
		"serve.completed": float64(done),
		"serve.cancelled": float64(canc),
		"serve.rejected":  float64(rej),
		"serve.failed":    float64(fail),
		"serve.retried":   float64(st.Retried - before.Retried),
	}
}

// serialRec is RecJob.Serial's recursion without the closure that
// method allocates on every call: the job's body and nothing else.
func serialRec(j *sched.RecJob, n int64) int64 {
	if v, ok := j.Leaf(n); ok {
		return v
	}
	a, b := j.Split(n)
	return serialRec(j, a) + serialRec(j, b)
}

// timeSerial times the serial reference of j, checking each result:
// serialSamples samples, each the ns per run over at least
// serialSampleLen of back-to-back runs.
func timeSerial(m *measurement, j sched.RecJob, want int64) []float64 {
	samples := make([]float64, serialSamples)
	for i := range samples {
		t0, t, n := now(), now(), 0
		for ; t-t0 < int64(serialSampleLen); t = now() {
			m.check(serialRec(&j, j.Root) == want)
			n++
		}
		samples[i] = float64(t-t0) / float64(n)
	}
	return samples
}

// closed is a closed-loop serve workload set up: a warm server and one
// client state per client. Each client sends its next request when the
// previous one has returned.
type closed struct {
	srv     *serve.Server
	clients []*client
	ref     sched.RecJob // the healthy job, for the serial reference
	refWant int64
	direct  func(probes values) float64 // ref run with RunRec alone, ns
}

// client is one closed-loop caller. All of its state is its own, so the
// loop shares nothing with the other client but the server.
type client struct {
	id   int32
	cpu  int // where this client keeps its thread, see runClients
	srv  *serve.Server
	m    measurement
	lat  *hist // healthy requests, Submit call to Wait return
	reqs int64

	healthy     serve.Job
	healthyWant int64
	probe       *jobProbe // non-nil in a traced run
	traced      serve.Job // healthy behind the probe
	spans       *requestSpans
	tr          *spanBuf

	// The cancel mix; mix == nil sends healthy requests under
	// context.Background only.
	mix                  *rand.Rand
	slow                 serve.Job
	slowWant             int64
	cancelLat            *hist // deadline instant to Wait return
	slowSent, slowMissed int64
}

func setupTinyClosed() (*closed, error) {
	srv, err := serve.New(serve.Options{Workers: 2, LaneWidth: 1})
	if err != nil {
		return nil, err
	}
	job := fibw.Job(tinyFibN, 1)
	c := &closed{srv: srv, ref: job, refWant: fibw.Serial(tinyFibN),
		direct: func(p values) float64 { return p["sched.runrec_fib4_ns"] }}
	for i := 0; i < 2; i++ {
		c.clients = append(c.clients, newClient(int32(i), srv, job, c.refWant))
	}
	c.clients[1].cpu = cpuB
	c.warm(tinyWarmRequests)
	return c, nil
}

func setupCancelMix(seed uint64) (*closed, error) {
	// Deadline-aware admission would learn the slow class's service
	// time and shed it at Submit; the workload wants the abort to land
	// mid-flight, so it is off, as in woolbench -serve. One lane leaves
	// the second core to the client and to the runtime's timers: with a
	// lane per core the deadline's AfterFunc does not run until the job
	// has ended.
	srv, err := serve.New(serve.Options{Workers: 1, LaneWidth: 1,
		Resilience: resilience.Options{DisableDeadline: true}})
	if err != nil {
		return nil, err
	}
	job := fibw.Job(healthyFibN, 1)
	c := &closed{srv: srv, ref: job, refWant: fibw.Serial(healthyFibN),
		direct: func(p values) float64 { return p["sched.runrec_fib16_us"] * 1e3 }}
	cl := newClient(0, srv, job, c.refWant)
	cl.mix = newMix(seed)
	cl.slow = serve.Rec(stress.Job(slowHeight, slowIters, 1))
	cl.slowWant = 1 << slowHeight
	cl.cancelLat = newHist()
	c.clients = []*client{cl}
	c.warm(mixWarmRequests)
	return c, nil
}

// newMix is the seeded stream that picks each request's class.
func newMix(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0xca9ce1)) }

// nextIsSlow draws the next request's class: one in slowOneIn is slow.
func nextIsSlow(mix *rand.Rand) bool { return mix.IntN(slowOneIn) == 0 }

func newClient(id int32, srv *serve.Server, job sched.RecJob, want int64) *client {
	return &client{id: id, cpu: cpuA, srv: srv, lat: newHist(), healthy: serve.Rec(job), healthyWant: want}
}

// runClients runs every client in a goroutine of its own until done
// says so, and waits for them.
//
// Thread placement (affinity.go): two clients each hand a thread back
// and forth with a lane, and each keeps re-pinning the thread it is on
// to its own CPU, so the two pairs settle on the two CPUs. A single
// client doing that would drag every thread it touches onto its CPU
// with nobody pulling the other way, and no fixed placement tried kept
// the deadline timers off the lane's CPU, where they wait milliseconds
// for the kernel to preempt the lane's thread. So with one client the
// threads, which start out placed, are let onto both CPUs and the kernel
// moves them as they wake each other: 11 runs in 12 settled with client
// and lane apart (median 57-62 us), one with them together (75 us).
func (c *closed) runClients(done func(*client) bool) {
	single := len(c.clients) == 1
	if single {
		c.clients[0].m.require(placeOthers(anyCPU) == nil, "cannot place the threads")
	}
	var wg sync.WaitGroup
	for _, cl := range c.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; !done(cl); n++ {
				if pinning && !single && n%pinEvery == 0 {
					cl.m.require(pinThread(0, cl.cpu) == nil, "client %d: cannot pin its thread", cl.id)
				}
				cl.one()
			}
		}()
	}
	wg.Wait()
}

func (c *closed) warm(requests int) {
	each := int64(requests / len(c.clients))
	c.runClients(func(cl *client) bool { return cl.reqs >= each })
	for _, cl := range c.clients {
		cl.reset()
	}
}

func (c *closed) close() { c.srv.Close() }

func (cl *client) reset() {
	cl.m = measurement{}
	cl.lat.reset()
	cl.reqs, cl.slowSent, cl.slowMissed = 0, 0, 0
	if cl.cancelLat != nil {
		cl.cancelLat.reset()
	}
}

// trace switches the client to its probed job and gives it a span log.
func (cl *client) trace(job sched.RecJob, spanCap int) {
	cl.probe = new(jobProbe)
	cl.traced = serve.Rec(cl.probe.wrap(job))
	cl.spans = newRequestSpans()
	cl.tr = newSpanBuf(spanCap)
}

// one sends one request and waits for it.
func (cl *client) one() {
	cl.reqs++
	if cl.mix != nil && nextIsSlow(cl.mix) {
		cl.oneSlow()
		return
	}
	ctx := context.Background()
	if cl.mix != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, healthyLimit)
		defer cancel()
	}
	job := cl.healthy
	if cl.probe != nil {
		job = cl.traced
		cl.probe.calls = 0
	}
	t0 := now()
	tk, err := cl.srv.Submit(ctx, "", job)
	if err != nil {
		cl.m.check(false)
		return
	}
	var t1 int64
	if cl.probe != nil {
		t1 = now()
	}
	v, err := tk.Wait()
	t3 := now()
	cl.m.check(err == nil && v == cl.healthyWant)
	cl.lat.record(t3 - t0)
	if cl.probe != nil && err == nil {
		cl.spans.record(cl.tr, int32(cl.reqs), cl.id, t0, t1, cl.probe.first, cl.probe.last, t3)
	}
}

// oneSlow sends a slow-class request under a deadline it cannot meet.
// The expected outcome is context.DeadlineExceeded; a request that ran
// to completion with the right value was missed by the abort, which is
// counted but is not a failure; anything else is one.
func (cl *client) oneSlow() {
	cl.slowSent++
	ctx, cancel := context.WithTimeout(context.Background(), slowDeadline)
	defer cancel()
	dl, _ := ctx.Deadline()
	deadline := int64(dl.Sub(epoch))
	t0 := now()
	tk, err := cl.srv.Submit(ctx, "", cl.slow)
	if err != nil {
		cl.m.check(false)
		return
	}
	v, err := tk.Wait()
	t3 := now()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		cl.m.check(true)
	case err == nil && v == cl.slowWant:
		cl.m.check(true)
		cl.slowMissed++
	default:
		cl.m.check(false)
	}
	cl.cancelLat.record(t3 - deadline)
	if cl.tr != nil && cl.tr.room(2) {
		root := cl.tr.add("request.slow", t0, t3, -1, int32(cl.reqs), cl.id)
		cl.tr.add("serve.cancel", deadline, t3, root, int32(cl.reqs), cl.id)
	}
}

func (c *closed) measure(d time.Duration, traced bool, probes values) *measurement {
	m := &measurement{}
	for _, cl := range c.clients {
		cl.reset()
		if traced {
			cl.trace(c.ref, spanCapacity/len(c.clients))
		}
	}
	before := c.srv.Stats().Tenants[0]
	var mt meter
	var serial, opsPerS []float64
	var reqs int64
	for s := 0; s < closedSlices; s++ {
		serial = append(serial, timeSerial(m, c.ref, c.refWant)...)
		mt.start()
		t0 := now()
		end := t0 + int64(d)/closedSlices
		c.runClients(func(*client) bool { return now() >= end })
		wall := now() - t0
		var sofar int64
		for _, cl := range c.clients {
			sofar += cl.reqs
		}
		mt.stop(sofar-reqs, 0)
		opsPerS = append(opsPerS, float64(sofar-reqs)/float64(wall)*1e9)
		reqs = sofar
	}

	lat := newHist()
	for _, cl := range c.clients {
		lat.merge(cl.lat)
		m.add(&cl.m)
	}
	p50 := lat.quantile(0.5)
	m.head = headline{
		LatP50Us:      p50 / 1e3,
		OpsPerS:       median(opsPerS),
		OverheadRatio: p50 / median(serial),
		CPUUsPerOp:    median(mt.cpuPerOp),
	}
	m.layer = serveStats(m, c.srv, before, reqs)
	m.layer["serve.lat_p999_us"] = lat.quantile(0.999) / 1e3
	m.layer["serve.bytes_per_req"] = mt.bytesPerOp()
	m.layer["bench.lat_p99_us"] = lat.quantile(0.99) / 1e3
	m.layer["bench.allocs_per_op"] = mt.allocsPerOp()
	m.layer["bench.t_serial_us"] = median(serial) / 1e3
	m.layer["bench.samples"] = float64(lat.n)
	if cl := c.clients[0]; cl.mix != nil {
		m.layer["serve.cancel_lat_p50_us"] = cl.cancelLat.quantile(0.5) / 1e3
		m.layer["serve.cancel_lat_p99_us"] = cl.cancelLat.quantile(0.99) / 1e3
		m.layer["serve.cancel_missed_share"] = float64(cl.slowMissed) / float64(max(cl.slowSent, 1))
	}
	if traced {
		spans := newRequestSpans()
		for _, cl := range c.clients {
			spans.merge(cl.spans)
			m.spans = append(m.spans, cl.tr)
			cl.probe, cl.tr = nil, nil
		}
		maps.Copy(m.layer, spans.layer(c.direct(probes)))
	}
	return m
}
