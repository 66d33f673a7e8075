package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand/v2"
	"runtime"
	"time"

	"gowool/internal/sched"
	"gowool/internal/serve"
	"gowool/internal/workloads/fibw"
)

// serve-open: requests arrive on a schedule whether or not the server
// keeps up, as independent users' would. Four phases of equal length
// at fixed rates; the last is above what one lane can serve (~20 k/s
// on the 2-core host this was sized on), so that its completions per
// second are the lane's capacity and the highest rate the server holds
// has room to rise.
var openRates = [...]int{2000, 6000, 10000, 24000}

const (
	// openP90LimitUs is the latency limit a rate must meet at its 90th
	// percentile to count as held. Frozen at 2 ms: the worst p90 seen at
	// the three lower rates while sizing was under 1 ms.
	openP90LimitUs = 2000
	// openMaxPending lifts the server's default bound of 1024 queued
	// requests, which the over-capacity phase would overrun: this workload
	// measures a growing queue, it does not shed one.
	openMaxPending = 1 << 20
	// openDrainShare of a phase's slot is left for its queue to drain.
	openDrainShare = 0.1
)

// poissonSchedule returns the arrival instants, as ns from the start
// of a phase, of a Poisson process of the given rate over d.
func poissonSchedule(rng *rand.Rand, rate int, d time.Duration) []int64 {
	due := make([]int64, 0, int(float64(rate)*d.Seconds()*1.1)+16)
	mean := 1e9 / float64(rate)
	for t := rng.ExpFloat64() * mean; t < float64(d); t += rng.ExpFloat64() * mean {
		due = append(due, int64(t))
	}
	return due
}

// open is the open-loop workload set up: a warm one-lane server, the
// arrival schedule of every phase, and the generator's buffers, all
// allocated before anything is timed.
type open struct {
	srv      *serve.Server
	job      sched.RecJob
	want     int64
	phaseLen time.Duration
	due      [len(openRates)][]int64

	// Per accepted request of the current phase, in submission order;
	// one lane serves them in that order too, so the head of the list is
	// the only ticket the generator has to poll.
	tickets []*serve.Ticket
	dueAt   []int64
	subIn   []int64 // traced: Submit call and return
	subOut  []int64
}

func setupOpen(seed uint64, d time.Duration) (*open, error) {
	srv, err := serve.New(serve.Options{Workers: 1, LaneWidth: 1, MaxPending: openMaxPending})
	if err != nil {
		return nil, err
	}
	o := &open{
		srv:      srv,
		job:      fibw.Job(healthyFibN, 1),
		want:     fibw.Serial(healthyFibN),
		phaseLen: time.Duration(float64(d) / float64(len(openRates)) * (1 - openDrainShare)),
	}
	rng := rand.New(rand.NewPCG(seed, 0x09e7))
	most := 0
	for i, rate := range openRates {
		o.due[i] = poissonSchedule(rng, rate, o.phaseLen)
		most = max(most, len(o.due[i]))
	}
	o.tickets = make([]*serve.Ticket, most)
	o.dueAt = make([]int64, most)
	o.subIn = make([]int64, most)
	o.subOut = make([]int64, most)

	job := serve.Rec(o.job)
	for i := 0; i < openWarmRequests; i++ {
		tk, err := srv.Submit(context.Background(), "", job)
		if err != nil {
			srv.Close()
			return nil, err
		}
		if v, err := tk.Wait(); err != nil || v != o.want {
			srv.Close()
			return nil, fmt.Errorf("serve-open warm-up: got %d, %v", v, err)
		}
	}
	return o, nil
}

func (o *open) close() { o.srv.Close() }

// phaseResult is what one rate yields.
type phaseResult struct {
	lat                   *hist // due instant to completion seen
	arrivals              int   // Submit calls made
	inWindow              int   // completions seen before the phase's end
	lateSum, lateMax      int64 // Submit call less due instant
	backlogMid, backlogHi int   // requests outstanding
	backlogEnd            int
	window                time.Duration
}

// held reports whether the server kept up with the rate: p90 within
// the limit, 99 % of the arrivals completed inside the phase, and the
// backlog's growth over the second half under 1 % of that half's
// arrivals.
func (r *phaseResult) held() bool {
	return r.lat.quantile(0.9)/1e3 <= openP90LimitUs &&
		float64(r.inWindow) >= 0.99*float64(r.arrivals) &&
		float64(r.backlogEnd-r.backlogMid) <= 0.01*float64(r.arrivals)/2
}

// runPhase is the generator: it submits each request when it is due
// and, in between, polls the oldest outstanding ticket. It spins and
// never sleeps, since a sleeping generator overslept by ~0.6 ms an
// arrival on this host. probe is nil in an untraced run, spans where no
// spans are wanted.
func (o *open) runPhase(m *measurement, job serve.Job, due []int64, probe *jobProbe, spans *requestSpans, tr *spanBuf) phaseResult {
	res := phaseResult{lat: newHist(), window: o.phaseLen}
	start := now()
	windowEnd := start + int64(o.phaseLen)
	next, head, accepted := 0, 0, 0
	for next < len(due) || head < accepted {
		t := now()
		if next < len(due) && t >= start+due[next] {
			dueAt := start + due[next]
			next++
			res.arrivals++
			tk, err := o.srv.Submit(context.Background(), "", job)
			if err != nil {
				m.check(false)
				continue
			}
			late := t - dueAt
			res.lateSum += late
			res.lateMax = max(res.lateMax, late)
			o.tickets[accepted], o.dueAt[accepted] = tk, dueAt
			if probe != nil {
				o.subIn[accepted], o.subOut[accepted] = t, now()
			}
			accepted++
			backlog := accepted - head
			res.backlogHi = max(res.backlogHi, backlog)
			if next == len(due)/2 {
				res.backlogMid = backlog
			}
			if next == len(due) {
				res.backlogEnd = backlog
			}
		}
		for head < accepted && isDone(o.tickets[head]) {
			seen := now()
			v, err := o.tickets[head].Wait()
			m.check(err == nil && v == o.want)
			res.lat.record(seen - o.dueAt[head])
			if seen <= windowEnd {
				res.inWindow++
			}
			if spans != nil {
				st := probe.log[head]
				// The request span starts when the request was due; the
				// generator's lateness is the part before Submit.
				if tr.room(1) {
					tr.add("gen.late", o.dueAt[head], o.subIn[head], -1, int32(head), 0)
				}
				spans.record(tr, int32(head), 0, o.subIn[head], o.subOut[head], st[0], st[1], seen)
			}
			o.tickets[head] = nil
			head++
		}
	}
	return res
}

func isDone(tk *serve.Ticket) bool {
	select {
	case <-tk.Done():
		return true
	default:
		return false
	}
}

func (o *open) measure(d time.Duration, traced bool, probes values) *measurement {
	m := &measurement{}
	// The generator owns an OS thread, so that its CPU time can be told
	// from the server's and taken out of cpu_us_per_op.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	job := serve.Rec(o.job)
	var probe *jobProbe
	var spans, held *requestSpans // held: the rates below capacity
	var tr *spanBuf
	if traced {
		probe = &jobProbe{log: make([][2]int64, len(o.tickets))}
		job = serve.Rec(probe.wrap(o.job))
		spans = newRequestSpans()
		held = spans
		tr = newSpanBuf(spanCapacity)
		m.spans = []*spanBuf{tr}
	}

	before := o.srv.Stats().Tenants[0]
	var results [len(openRates)]phaseResult
	var serial []float64
	var mt meter
	var arrivals, lateSum, lateMax int64
	var backlogHi int
	for i := range openRates {
		serial = append(serial, timeSerial(m, o.job, o.want)...)
		if probe != nil {
			probe.logged = 0
		}
		mt.start()
		gen0 := cpuTime(rusageThread)
		if i == len(openRates)-1 {
			// Above capacity a request's dispatch span is the queue's
			// length; it would swamp the three rates the spans are for.
			spans = nil
		}
		results[i] = o.runPhase(m, job, o.due[i], probe, spans, tr)
		r := &results[i]
		mt.stop(int64(r.arrivals), cpuTime(rusageThread)-gen0)
		arrivals += int64(r.arrivals)
		lateSum += r.lateSum
		lateMax = max(lateMax, r.lateMax)
		backlogHi = max(backlogHi, r.backlogHi)
	}

	// The three rates below capacity carry the latency; the one above
	// it carries the throughput.
	var p50s []float64
	all := newHist()
	rateOK := 0
	m.layer = serveStats(m, o.srv, before, arrivals)
	for i, rate := range openRates {
		r := &results[i]
		if r.held() {
			rateOK = max(rateOK, rate)
		}
		m.layer[fmt.Sprintf("serve.open_lat_p90_us.r%d", rate)] = r.lat.quantile(0.9) / 1e3
		if i == len(openRates)-1 {
			break
		}
		all.merge(r.lat)
		p50s = append(p50s, r.lat.quantile(0.5))
		m.layer[fmt.Sprintf("serve.open_lat_p50_us.r%d", rate)] = r.lat.quantile(0.5) / 1e3
		m.layer[fmt.Sprintf("serve.open_lat_p99_us.r%d", rate)] = r.lat.quantile(0.99) / 1e3
	}
	top := &results[len(openRates)-1]
	p50 := mean(p50s)
	m.head = headline{
		LatP50Us:      p50 / 1e3,
		OpsPerS:       float64(top.inWindow) / top.window.Seconds(),
		OverheadRatio: p50 / median(serial),
		CPUUsPerOp:    float64(mt.cpu.Microseconds()) / float64(arrivals),
	}
	m.layer["serve.rate_ok_rps"] = float64(rateOK)
	m.layer["serve.backlog_max"] = float64(backlogHi)
	m.layer["serve.gen_late_mean_us"] = float64(lateSum) / float64(arrivals) / 1e3
	m.layer["serve.gen_late_max_us"] = float64(lateMax) / 1e3
	m.layer["serve.lat_p999_us"] = all.quantile(0.999) / 1e3
	m.layer["serve.bytes_per_req"] = mt.bytesPerOp()
	m.layer["bench.lat_p99_us"] = all.quantile(0.99) / 1e3
	m.layer["bench.allocs_per_op"] = mt.allocsPerOp()
	m.layer["bench.t_serial_us"] = median(serial) / 1e3
	m.layer["bench.samples"] = float64(all.n)
	if traced {
		maps.Copy(m.layer, held.layer(probes["sched.runrec_fib16_us"]*1e3))
	}
	return m
}
