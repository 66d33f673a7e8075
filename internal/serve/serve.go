// Package serve is woolserve: a concurrent request-serving layer over
// the scheduler registry (ROADMAP item 1). The paper's pool runs one
// root task at a time — Run calls must not overlap — which fits batch
// kernels but not a service executing many small independent task DAGs
// submitted concurrently. woolserve bridges the two worlds without
// touching the hot protocol:
//
//   - Submission. Submit(ctx, tenant, job) enqueues a request and
//     returns a Ticket; Ticket.Wait blocks for the result. Any number
//     of goroutines may submit concurrently: serialization onto the
//     single-root pools happens here, not in user code, which is what
//     turns the backends' concurrent-Run guard (poolerr.
//     ErrConcurrentRun) from a trap into an internal invariant.
//
//   - Lanes. The server partitions its Workers into lanes — small
//     independent pools of LaneWidth workers each — and each lane
//     drains requests one at a time. Requests are small (that is the
//     fine-grained premise), so cross-request parallelism comes from
//     many lanes rather than one wide pool; within a request the
//     lane's pool supplies the paper's work-stealing parallelism.
//
//   - Weighted tenant fairness. Named tenants own demand-sized worker
//     teams, the deterministic team-building idea of Wimmer & Träff
//     (arXiv:1012.5030): each tenant's team is sized proportionally to
//     its weight (never below one lane), so a flooding tenant cannot
//     starve the others, and idle teams help the busiest queue
//     (work conservation) instead of spinning.
//
//   - Admission control. Each tenant's pending queue is bounded
//     (MaxPending); a submission beyond the bound fails fast with
//     ErrOverloaded rather than queueing unboundedly — the service
//     analogue of the task-stack's overflow-inline degradation: under
//     sustained overload, shed load at the boundary, never corrupt or
//     stall the runtime.
//
//   - Per-request cancellation. A request's context cancels or times
//     out mid-flight: the lane aborts its pool (sched.Abortable, the
//     request-scoped poison of internal/core, DESIGN.md §16), the
//     request unwinds with the context's error, and the pool is Reset
//     back into service for the next request. That contract is the
//     server's point, so New refuses a backend without Caps.Serve: it
//     could neither interrupt a running request nor revive a pool a
//     panicking one poisoned.
//
//   - Self-healing (DESIGN.md §17, internal/resilience). The per-
//     request mechanisms above handle one bad request; the resilience
//     layer handles *sustained* failure: a per-tenant circuit breaker
//     sheds a persistently failing tenant (ErrCircuitOpen), deadline-
//     aware admission sheds requests whose remaining deadline is below
//     the learned service time for their class (ErrDeadlineUnmeetable),
//     caller-marked retry-safe requests are retried under a budget with
//     jittered backoff, and a lane whose Reset fails or whose failures
//     streak is quarantined — pulled from rotation, hot-replaced, and
//     probed back to health. All of it defaults on; Options.Resilience
//     tunes or disables each subsystem, Server.Health observes it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/poolerr"
	"gowool/internal/resilience"
	"gowool/internal/sched"
)

// Sentinel errors returned by Submit and Ticket.Wait. The shed
// sentinels (ErrOverloaded, ErrCircuitOpen, ErrDeadlineUnmeetable)
// carry poolerr.ClassShed, so poolerr.ClassOf distinguishes load
// shedding from real failures anywhere the wrapped error travels.
var (
	// ErrOverloaded rejects a submission that found the tenant's
	// pending queue full (admission control; see Options.MaxPending).
	ErrOverloaded = poolerr.Shed(errors.New("serve: tenant queue full"))
	// ErrCircuitOpen rejects a submission while the tenant's circuit
	// breaker is open (or half-open with its probe quota in flight).
	ErrCircuitOpen = poolerr.Shed(errors.New("serve: tenant circuit open"))
	// ErrDeadlineUnmeetable rejects a submission whose remaining
	// deadline is below the estimated service time for its job class.
	ErrDeadlineUnmeetable = poolerr.Shed(errors.New("serve: deadline unmeetable"))
	// ErrClosed rejects submissions to (and fails tickets drained by)
	// a closed server.
	ErrClosed = errors.New("serve: server closed")
	// ErrUnknownTenant rejects a submission naming a tenant the server
	// was not built with.
	ErrUnknownTenant = errors.New("serve: unknown tenant")
)

// PanicError wraps a panic that escaped a request's task tree; it is
// the request's Wait error (the lane Resets the pool, so one panicking
// request cannot poison the next).
type PanicError struct{ Val any }

// Error describes the panic.
func (e *PanicError) Error() string { return fmt.Sprintf("serve: request panicked: %v", e.Val) }

// ErrorClass classifies a request panic as retryable (DESIGN.md §17):
// the pool is revived, so a re-run is safe to attempt, and the retry
// budget bounds the amplification when the panic is deterministic.
func (e *PanicError) ErrorClass() poolerr.Class { return poolerr.ClassRetryable }

// Job is one request: a root task DAG to run on a lane's pool. Build
// one with Rec or Range.
type Job interface {
	runOn(p sched.Pool) int64
	// class keys the per-tenant service-time estimator: the job's
	// declared Name, or the job shape when unnamed.
	class() string
}

type recJob struct{ j sched.RecJob }

func (r recJob) runOn(p sched.Pool) int64 { return p.RunRec(r.j) }

func (r recJob) class() string {
	if r.j.Name != "" {
		return r.j.Name
	}
	return "rec"
}

// Rec wraps a divide-and-conquer job as a servable request.
func Rec(j sched.RecJob) Job { return recJob{j} }

type rangeJob struct{ j sched.RangeJob }

func (r rangeJob) runOn(p sched.Pool) int64 { return p.RunRange(r.j) }

func (r rangeJob) class() string {
	if r.j.Name != "" {
		return r.j.Name
	}
	return "range"
}

// Range wraps an index-range job as a servable request.
func Range(j sched.RangeJob) Job { return rangeJob{j} }

// Tenant configures one named tenant (a team in the arXiv:1012.5030
// sense).
type Tenant struct {
	// Name is the Submit key. Must be unique; one tenant may be "".
	Name string
	// Weight sizes the tenant's lane team relative to the other
	// tenants; <= 0 means 1. Every tenant gets at least one lane.
	Weight int
	// MaxPending overrides Options.MaxPending for this tenant when
	// positive.
	MaxPending int
	// Resilience overrides the server-wide resilience defaults for this
	// tenant; nil fields inherit Options.Resilience.
	Resilience *resilience.TenantConfig
}

// Options configures a Server. The zero value serves a single
// anonymous tenant on the wool backend with GOMAXPROCS workers.
type Options struct {
	// Backend is the registry scheduler to build lanes from; default
	// "wool". It must have sched.Caps.Serve (Abort and Reset on its
	// pools): today "wool" and "woolgen".
	Backend string
	// Workers is the total worker budget across all lanes; default
	// GOMAXPROCS.
	Workers int
	// LaneWidth is the workers per lane. Default 1: requests are
	// assumed fine-grained, so throughput comes from many independent
	// lanes; raise it when single-request latency needs intra-request
	// stealing.
	LaneWidth int
	// MaxPending bounds each tenant's pending queue; a submission
	// beyond it fails with ErrOverloaded. Default 1024.
	MaxPending int
	// Tenants declares the named tenants; empty means one anonymous
	// tenant ("") of weight 1.
	Tenants []Tenant
	// Pool is the base options for every lane pool. Workers is
	// overridden with LaneWidth. Note that PrivateTasks trades abort
	// latency for join cost: the request-scoped abort token is checked
	// on the generic join path, which private joins on the generated
	// fast path bypass — the default all-public lanes observe a
	// cancellation within a few dozen joins.
	Pool sched.Options
	// ConfigurePool, when non-nil, edits each lane's pool options
	// before construction (lane is the global lane index). It is the
	// only way to attach a tracer or a chaos injector when there is
	// more than one lane: both are single-writer per worker index, so
	// every lane needs its own and New refuses two lanes sharing one.
	ConfigurePool func(lane int, o *sched.Options)
	// Resilience configures the self-healing layer. The zero value
	// enables every subsystem (breaker, deadline admission, retries,
	// lane quarantine) with the defaults documented in
	// internal/resilience; the Disable* switches turn subsystems off.
	Resilience resilience.Options
	// Chaos, when non-nil, injects faults at the serving layer's
	// control-plane points (lane-reset-fail, submit-storm, probe-fail)
	// for the torture suites. Nil means no injection.
	Chaos *chaos.ServeInjector
}

// Ticket is a submitted request's handle.
type Ticket struct {
	// Retryable records whether the server may re-run this request on a
	// failure-class outcome: the caller marked it retry-safe
	// (SubmitOptions.Retryable) and server-side retries are enabled.
	// Read-only after Submit.
	Retryable bool

	job       Job
	ctx       context.Context
	tn        *tenant
	submitted time.Time
	class     string

	// attempt counts completed runs; probe marks the ticket as a half-
	// open breaker probe whose outcome must be reported via ProbeDone.
	// Both are touched only by the owning lane (one attempt at a time).
	attempt int
	probe   bool

	// val/err/latency are published by the close of done.
	val     int64
	err     error
	latency time.Duration
	done    chan struct{}
}

// Wait blocks until the request finished (completed, cancelled,
// panicked, or failed by Close) and returns its result. The result of
// a cancelled or failed request is 0 with the classifying error:
// the request context's error for cancellations, a *PanicError for
// task panics, ErrClosed for requests drained by Close.
func (t *Ticket) Wait() (int64, error) {
	<-t.done
	return t.val, t.err
}

// Done returns a channel closed when the request finishes, for callers
// multiplexing tickets with select.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Latency returns the submit-to-finish latency; valid after Wait/Done.
func (t *Ticket) Latency() time.Duration { return t.latency }

// tenant is the runtime state of one configured Tenant.
type tenant struct {
	name       string
	weight     int
	maxPending int
	lanes      int

	// Resilience state; any of these is nil when its subsystem is
	// disabled server-wide.
	breaker *resilience.Breaker
	est     *resilience.Estimator
	retrier *resilience.Retrier

	// q is the FIFO pending queue, guarded by the server mutex.
	q []*Ticket

	submitted atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	cancelled atomic.Int64
	failed    atomic.Int64

	// Shed-cause breakout: rejected == shedOverload + shedCircuit +
	// shedDeadline. retried counts server-side re-runs (attempts beyond
	// a ticket's first).
	shedOverload atomic.Int64
	shedCircuit  atomic.Int64
	shedDeadline atomic.Int64
	retried      atomic.Int64
}

// pop removes and returns the oldest pending ticket (server mutex
// held), or nil.
func (tn *tenant) pop() *Ticket {
	if len(tn.q) == 0 {
		return nil
	}
	t := tn.q[0]
	tn.q[0] = nil
	tn.q = tn.q[1:]
	return t
}

// Server is the serving runtime. Create with New, submit with Submit,
// stop with Close.
type Server struct {
	opts    Options
	sch     sched.Scheduler
	tenants []*tenant
	byName  map[string]*tenant
	lanes   []*lane

	res  resilience.Options
	qcfg resilience.QuarantineConfig
	inj  *chaos.ServeInjector

	// closeCh is closed by Close; quarantined lanes select on it so a
	// probe backoff never outlives the server.
	closeCh chan struct{}

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	// retryTimers holds the backoff timer of every ticket waiting to be
	// re-enqueued. Map presence is the ownership token between requeue
	// and Close: whoever removes the entry (or finds the map nil)
	// finalizes the ticket, so done is closed exactly once.
	retryTimers map[*Ticket]*time.Timer
	wg          sync.WaitGroup
}

// New builds and starts a server: lanes are constructed (validating
// the backend and the lane pool options against its capabilities, see
// sched.CheckOptions) and their drain loops started. The caller must
// Close it.
func New(o Options) (*Server, error) {
	if o.Backend == "" {
		o.Backend = "wool"
	}
	sch, ok := sched.Lookup(o.Backend)
	if !ok {
		return nil, fmt.Errorf("serve: unknown backend %q (registered: %v)", o.Backend, sched.Names())
	}
	caps := sch.Caps()
	if !caps.Serve {
		var servable []string
		for _, sc := range sched.All() {
			if sc.Caps().Serve {
				servable = append(servable, sc.Name())
			}
		}
		return nil, fmt.Errorf("serve: backend %q is not servable: its pools have no Abort/Reset (sched.Caps.Serve), so a cancelled request could not be interrupted nor a poisoned pool revived; servable backends: %v", o.Backend, servable)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.LaneWidth <= 0 {
		o.LaneWidth = 1
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 1024
	}
	tens := o.Tenants
	if len(tens) == 0 {
		tens = []Tenant{{Name: "", Weight: 1}}
	}

	s := &Server{opts: o, sch: sch, byName: map[string]*tenant{}}
	s.cond = sync.NewCond(&s.mu)
	s.res = o.Resilience
	s.qcfg = o.Resilience.Quarantine.Defaulted()
	s.inj = o.Chaos
	s.closeCh = make(chan struct{})
	s.retryTimers = map[*Ticket]*time.Timer{}
	seed := o.Resilience.Seed
	if seed == 0 {
		// Fixed default so retry jitter is replayable by construction.
		seed = 0x77005eed
	}
	for ti, tc := range tens {
		if _, dup := s.byName[tc.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant %q", tc.Name)
		}
		tn := &tenant{name: tc.Name, weight: tc.Weight, maxPending: tc.MaxPending}
		if tn.weight <= 0 {
			tn.weight = 1
		}
		if tn.maxPending <= 0 {
			tn.maxPending = o.MaxPending
		}
		bcfg, ecfg, rcfg := s.res.Breaker, s.res.Estimator, s.res.Retry
		if tc.Resilience != nil {
			if tc.Resilience.Breaker != nil {
				bcfg = *tc.Resilience.Breaker
			}
			if tc.Resilience.Estimator != nil {
				ecfg = *tc.Resilience.Estimator
			}
			if tc.Resilience.Retry != nil {
				rcfg = *tc.Resilience.Retry
			}
		}
		if !s.res.DisableBreaker {
			tn.breaker = resilience.NewBreaker(bcfg, nil)
		}
		if !s.res.DisableDeadline {
			tn.est = resilience.NewEstimator(ecfg)
		}
		if !s.res.DisableRetry {
			tn.retrier = resilience.NewRetrier(rcfg, seed^(0x9e3779b97f4a7c15*uint64(ti+1)))
		}
		s.tenants = append(s.tenants, tn)
		s.byName[tc.Name] = tn
	}

	// fail undoes the lanes built so far.
	fail := func(err error) (*Server, error) {
		for _, l := range s.lanes {
			l.pool.Close()
		}
		return nil, err
	}
	laneCounts := apportionLanes(s.tenants, o.Workers/o.LaneWidth)
	laneIdx := 0
	for ti, tn := range s.tenants {
		tn.lanes = laneCounts[ti]
		for k := 0; k < laneCounts[ti]; k++ {
			po := o.Pool
			po.Workers = o.LaneWidth
			if o.ConfigurePool != nil {
				o.ConfigurePool(laneIdx, &po)
			}
			if err := sched.CheckOptions(caps, po); err != nil {
				return fail(fmt.Errorf("serve: lane %d options unsupported by backend %s: %w", laneIdx, o.Backend, err))
			}
			// A tracer's rings and an injector's agents are single-writer
			// per worker index, and every lane pool has a worker 0.
			for _, prev := range s.lanes {
				if (po.Trace != nil && po.Trace == prev.opts.Trace) || (po.Chaos != nil && po.Chaos == prev.opts.Chaos) {
					return fail(fmt.Errorf("serve: lanes %d and %d share one Pool.Trace or Pool.Chaos sink, which is single-writer per worker index; attach one per lane through Options.ConfigurePool", prev.idx, laneIdx))
				}
			}
			l := &lane{srv: s, idx: laneIdx, tn: tn, opts: po}
			l.pool = sch.NewPool(po)
			l.ab = l.pool.Native().(sched.Abortable) // what Caps.Serve promises
			s.lanes = append(s.lanes, l)
			laneIdx++
		}
	}

	for _, l := range s.lanes {
		s.wg.Add(1)
		go l.loop()
	}
	return s, nil
}

// apportionLanes sizes each tenant's lane team: every tenant gets at
// least one lane, and the remainder is distributed proportionally to
// weight (largest remainder, ties to the earlier tenant — the
// deterministic team building of arXiv:1012.5030 specialized to a
// static weight vector).
func apportionLanes(tens []*tenant, totalLanes int) []int {
	n := len(tens)
	if totalLanes < n {
		totalLanes = n
	}
	counts := make([]int, n)
	var weightSum int
	for i, tn := range tens {
		counts[i] = 1
		weightSum += tn.weight
	}
	rem := totalLanes - n
	fracs := make([]int, n)
	given := 0
	for i, tn := range tens {
		share := rem * tn.weight / weightSum
		counts[i] += share
		fracs[i] = rem*tn.weight - share*weightSum
		given += share
	}
	for given < rem {
		best := 0
		for i := 1; i < n; i++ {
			if fracs[i] > fracs[best] {
				best = i
			}
		}
		counts[best]++
		fracs[best] = -1
		given++
	}
	return counts
}

// SubmitOptions refines one submission.
type SubmitOptions struct {
	// Retryable marks the request retry-safe: its job is idempotent (or
	// the caller tolerates re-execution), so on a failure-class outcome
	// the server may re-run it under the tenant's retry budget with
	// jittered backoff instead of failing the ticket. Cancellations and
	// sheds are never retried.
	Retryable bool
}

// Submit enqueues job for tenantName under ctx and returns its Ticket.
// It never blocks: a full tenant queue rejects with ErrOverloaded, an
// open breaker with ErrCircuitOpen, a doomed deadline with
// ErrDeadlineUnmeetable, a closed server with ErrClosed, an unknown
// tenant with ErrUnknownTenant (all wrapped with context). A nil ctx
// means context.Background(). ctx governs the request end to end: a
// cancellation while queued fails the ticket at dispatch; a
// cancellation mid-run aborts the lane's pool.
func (s *Server) Submit(ctx context.Context, tenantName string, job Job) (*Ticket, error) {
	return s.SubmitWith(ctx, tenantName, job, SubmitOptions{})
}

// SubmitWith is Submit with per-submission options.
func (s *Server) SubmitWith(ctx context.Context, tenantName string, job Job, so SubmitOptions) (*Ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	tn, ok := s.byName[tenantName]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenantName)
	}
	if len(tn.q) >= tn.maxPending {
		s.mu.Unlock()
		tn.rejected.Add(1)
		tn.shedOverload.Add(1)
		return nil, fmt.Errorf("%w: tenant %q has %d pending", ErrOverloaded, tenantName, tn.maxPending)
	}
	if s.inj.Fail(chaos.ServeSubmitStorm) {
		s.mu.Unlock()
		tn.rejected.Add(1)
		tn.shedOverload.Add(1)
		return nil, fmt.Errorf("%w: tenant %q storm-shed (chaos)", ErrOverloaded, tenantName)
	}
	class := job.class()
	if tn.est != nil {
		if dl, has := ctx.Deadline(); has && tn.est.Unmeetable(class, time.Until(dl)) {
			s.mu.Unlock()
			tn.rejected.Add(1)
			tn.shedDeadline.Add(1)
			return nil, fmt.Errorf("%w: tenant %q class %q", ErrDeadlineUnmeetable, tenantName, class)
		}
	}
	// The breaker decides last: every earlier check sheds without
	// having consumed a half-open probe slot.
	var probe bool
	if tn.breaker != nil {
		admit, p := tn.breaker.Allow()
		if !admit {
			s.mu.Unlock()
			tn.rejected.Add(1)
			tn.shedCircuit.Add(1)
			return nil, fmt.Errorf("%w: tenant %q", ErrCircuitOpen, tenantName)
		}
		probe = p
	}
	t := &Ticket{
		Retryable: so.Retryable && tn.retrier != nil,
		job:       job, ctx: ctx, tn: tn,
		submitted: time.Now(), class: class, probe: probe,
		done: make(chan struct{}),
	}
	tn.q = append(tn.q, t)
	tn.submitted.Add(1)
	s.mu.Unlock()
	s.cond.Signal()
	return t, nil
}

// scheduleRetry arms t's backoff timer; after backoff the ticket goes
// back to its tenant's queue. Reports false when the server is closing
// (the caller then finalizes the ticket itself).
func (s *Server) scheduleRetry(t *Ticket, backoff time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retryTimers == nil {
		return false
	}
	s.retryTimers[t] = time.AfterFunc(backoff, func() { s.requeue(t) })
	return true
}

// requeue moves a backed-off ticket to the tail of its tenant's queue,
// unless Close claimed it first (then Close finalizes it). A queue that
// refilled past its bound while the ticket backed off sheds the retry:
// the ticket fails with ErrOverloaded rather than stretching the bound.
func (s *Server) requeue(t *Ticket) {
	s.mu.Lock()
	if s.retryTimers == nil {
		s.mu.Unlock()
		return
	}
	if _, mine := s.retryTimers[t]; !mine {
		s.mu.Unlock()
		return
	}
	delete(s.retryTimers, t)
	tn := t.tn
	if len(tn.q) >= tn.maxPending {
		s.mu.Unlock()
		finishTicket(t, 0, fmt.Errorf("%w: tenant %q retry shed, %d pending", ErrOverloaded, tn.name, tn.maxPending))
		return
	}
	tn.q = append(tn.q, t)
	s.mu.Unlock()
	s.cond.Signal()
}

// Close stops the server: pending requests (queued or backing off for
// a retry) are failed with ErrClosed, in-flight requests run to
// completion, and every lane pool is closed. Idempotent; Submit after
// Close returns ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.closeCh)
	var drained []*Ticket
	for _, tn := range s.tenants {
		drained = append(drained, tn.q...)
		tn.q = nil
	}
	// Claim the backing-off tickets: once retryTimers is nil, a timer
	// that fires anyway finds no entry and leaves finalization to us.
	timers := s.retryTimers
	s.retryTimers = nil
	s.mu.Unlock()
	s.cond.Broadcast()
	for t, tm := range timers {
		tm.Stop()
		drained = append(drained, t)
	}
	for _, t := range drained {
		t.tn.failed.Add(1)
		t.err = ErrClosed
		t.latency = time.Since(t.submitted)
		close(t.done)
	}
	s.wg.Wait()
}

// TenantStats is one tenant's counters in a Stats snapshot.
type TenantStats struct {
	Name      string
	Weight    int
	Lanes     int
	Pending   int
	Submitted int64 // accepted submissions
	Completed int64 // finished with a result
	Rejected  int64 // shed by admission control (the three Shed* causes)
	Cancelled int64 // failed by their context (queued or mid-flight)
	Failed    int64 // task panics, and tickets drained by Close

	// Shed-cause breakout: Rejected == ShedOverload + ShedCircuitOpen +
	// ShedDeadline.
	ShedOverload    int64 // queue full (ErrOverloaded), incl. chaos storms
	ShedCircuitOpen int64 // breaker open (ErrCircuitOpen)
	ShedDeadline    int64 // deadline unmeetable (ErrDeadlineUnmeetable)
	// Retried counts server-side re-runs of retry-safe requests
	// (attempts beyond each ticket's first).
	Retried int64
}

// Stats is a point-in-time server snapshot.
type Stats struct {
	Backend string
	Lanes   int
	// Quarantines / Replacements total the lanes' self-healing events:
	// quarantine entries, and the pool replacements they made (a lane
	// replaces its pool only when Reset failed or failures streaked).
	Quarantines  int64
	Replacements int64
	Tenants      []TenantStats
}

// Stats snapshots the per-tenant counters. Safe to call concurrently
// with submissions and while lanes are serving.
func (s *Server) Stats() Stats {
	out := Stats{Backend: s.opts.Backend, Lanes: len(s.lanes)}
	for _, l := range s.lanes {
		out.Quarantines += l.quarantines.Load()
		out.Replacements += l.replacements.Load()
	}
	s.mu.Lock()
	pending := make([]int, len(s.tenants))
	for i, tn := range s.tenants {
		pending[i] = len(tn.q)
	}
	s.mu.Unlock()
	for i, tn := range s.tenants {
		out.Tenants = append(out.Tenants, TenantStats{
			Name:            tn.name,
			Weight:          tn.weight,
			Lanes:           tn.lanes,
			Pending:         pending[i],
			Submitted:       tn.submitted.Load(),
			Completed:       tn.completed.Load(),
			Rejected:        tn.rejected.Load(),
			Cancelled:       tn.cancelled.Load(),
			Failed:          tn.failed.Load(),
			ShedOverload:    tn.shedOverload.Load(),
			ShedCircuitOpen: tn.shedCircuit.Load(),
			ShedDeadline:    tn.shedDeadline.Load(),
			Retried:         tn.retried.Load(),
		})
	}
	return out
}
