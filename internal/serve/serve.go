// Package serve is woolserve: a concurrent request-serving layer over
// the direct task stack (internal/core). The paper's pool runs one
// root task at a time — Run calls must not overlap — which fits batch
// kernels but not a service executing many small independent task DAGs
// submitted concurrently. woolserve bridges the two worlds without
// touching the hot protocol:
//
//   - Submission as spawn and join. Submit(ctx, tenant, job) returns a
//     Ticket and Ticket.Wait its result, from any number of goroutines.
//     The pair follows the paper's discipline for a task: Submit (the
//     spawn) puts the request in the mailbox of an idle lane and wakes
//     that lane's goroutine; Wait (the join) finds the request still in
//     the mailbox in the common case, takes it, and runs it on the
//     calling goroutine — the pool's Run executes its root on whichever
//     goroutine calls it — so a request that is waited for costs no
//     goroutine hand-off, as a task that is not stolen costs no
//     synchronization. The lane's goroutine is the thief: it takes the
//     mailed requests nobody joined (polled with Ticket.Done, or never
//     collected) and the ones that queued behind busy lanes. Its wake
//     token comes from the submitter, or — when the goroutine served
//     the lane's last request while its submitter polled Done and no
//     Wait joined it — from the lane's timer, re-armed to fire at once:
//     a submitter that keeps running would hold a goroutine it readied
//     in its own runnext slot, but an idle P runs an expired timer
//     first (DESIGN.md §16.1).
//     Serialization onto the single-root pools happens here, not in
//     user code, which is what turns the backends' concurrent-Run guard
//     (poolerr.ErrConcurrentRun) from a trap into an internal
//     invariant.
//
//   - Lanes. The server partitions its Workers into lanes — small
//     independent pools of LaneWidth workers each, with a one-ticket
//     mailbox and a goroutine — and at most one request runs on a
//     lane's pool at a time. Requests are small (that is the
//     fine-grained premise), so cross-request parallelism comes from
//     many lanes rather than one wide pool; within a request the
//     lane's pool supplies the paper's work-stealing parallelism: a
//     *core.Pool with private tasks, on which a request is one
//     ports.RunRec or RunRange over the generated-port context its Job
//     was built with (Rec, Range; DESIGN.md §13).
//     lane.go states the dispatch states and their invariants.
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
//     out mid-flight: the goroutine running the request notices at its
//     next poll of the context, every few spawns (core.Pool.Watch), and
//     aborts the lane's pool (core.Pool.Abort, the request-scoped poison
//     of DESIGN.md §16); the request unwinds with the context's error,
//     and the pool is Reset back into service for the next request. No
//     other goroutine takes part, so a deadline is kept with every P
//     busy. A request with no spawn left after its deadline completes.
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
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/core"
	"gowool/internal/gen/ports"
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
// one with Rec or Range, which build its port; a Job may then be
// submitted any number of times, concurrently and to several servers,
// and no request pays for a task definition.
type Job interface {
	// run executes the job on p through its generated port and returns
	// what sched.Pool.RunRec / RunRange return for it.
	run(p *core.Pool) int64
	// class keys the per-tenant service-time estimator: the job's
	// declared Name, or the job shape when unnamed.
	class() string
}

// recJob and rangeJob are the two Jobs: a generated port's context with
// the root call's arguments.
type recJob struct {
	name       string
	ctx        ports.RecCtx
	root, reps int64
}

type rangeJob struct {
	name    string
	ctx     ports.RangeCtx
	n, reps int64
}

func (j *recJob) class() string   { return j.name }
func (j *rangeJob) class() string { return j.name }

// run is where a request enters the pool. The port's root closure, built
// here should the port be inlined, must stay on the stack: a joined
// request allocates its Ticket and nothing else.
//
//woolvet:noescape
func (j *recJob) run(p *core.Pool) int64 { return ports.RunRec(p, &j.ctx, j.root, j.reps) }

//woolvet:noescape
func (j *rangeJob) run(p *core.Pool) int64 { return ports.RunRange(p, &j.ctx, j.n, j.reps) }

// Rec wraps a divide-and-conquer job as a servable request.
func Rec(j sched.RecJob) Job {
	return &recJob{cmp.Or(j.Name, "rec"), ports.RecCtx{Leaf: j.Leaf, Split: j.Split}, j.Root, j.Reps}
}

// Range wraps an index-range job as a servable request.
func Range(j sched.RangeJob) Job {
	return &rangeJob{cmp.Or(j.Name, "range"), ports.RangeCtx{Leaf: j.Leaf}, j.N, j.Reps}
}

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
// anonymous tenant with GOMAXPROCS workers.
type Options struct {
	// Workers is the total worker budget across all lanes; default
	// GOMAXPROCS.
	Workers int
	// LaneWidth is the workers per lane. Default 1: requests are
	// assumed fine-grained, so throughput comes from many independent
	// lanes; raise it when single-request latency needs intra-request
	// stealing. Workers/LaneWidth lanes bound the requests running at
	// once, whoever runs them: a request's root runs on the lane's
	// goroutine or on its submitter's (Ticket.Wait), the other
	// LaneWidth-1 workers of the lane's pool steal from it either way.
	LaneWidth int
	// MaxPending bounds each tenant's pending queue; a submission
	// beyond it fails with ErrOverloaded. Default 1024.
	MaxPending int
	// Tenants declares the named tenants; empty means one anonymous
	// tenant ("") of weight 1.
	Tenants []Tenant
	// Pool is the base options for every lane pool. Two fields are
	// overridden: Workers with LaneWidth, and PrivateTasks, which every
	// lane runs with — a one-worker lane has no thief, so no join of its
	// requests synchronizes; a wider lane starts with the paper's public
	// prefix and its thieves move the boundary. A cancellation reaches
	// private descriptors too: the abort trips the wire, and the request
	// unwinds at its next spawn.
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

// epoch is the zero of the server's clock: a request's stamps are
// offsets on the monotonic clock, a third of a time.Time's size and read
// without the wall clock, and epoch.Add turns one back into a time.Time
// that still carries the monotonic reading (the breaker's).
var epoch = time.Now()

// Ticket is a submitted request's handle. One is allocated per request
// and it is all a joined request allocates, so its size is the
// request path's garbage: the fields are ordered to pack, and what the
// tenant or the job already knows (the server, the estimator class) is
// not repeated here — 120 bytes, inside the 128-byte size class
// (TestServeRequestAllocs).
type Ticket struct {
	job Job
	ctx context.Context
	tn  *tenant
	// submitted is the request's first clock reading, since epoch, taken
	// once by SubmitWith before admission, which measures the deadline's
	// remaining budget from it too.
	submitted time.Duration

	// box is the lane whose mailbox holds the ticket; nil while it is
	// queued or backing off and once somebody took it. Guarded by the
	// server mutex: it is the word the takers race for. joined, under the
	// same mutex, records that a Wait asked for the ticket unfinished;
	// with done it tells a lane goroutine that served the ticket how to
	// be woken next (lane.chooseWake).
	box *lane

	// attempt counts completed runs; probe marks the ticket as a half-
	// open breaker probe whose outcome must be reported via ProbeDone.
	// Both are touched only by whoever runs the ticket (one attempt at
	// a time, handed on through the server mutex).
	attempt int

	// val/err/latency are published by finished, which finish sets last.
	// latency is end − submitted, where end is the last attempt's end-of-
	// attempt stamp (lane.serveOne, which reads it again after an abort
	// wait or a Reset), or the clock read by whoever else finishes the
	// ticket: a retry shed, Close.
	val     int64
	err     error
	latency time.Duration
	// done is made by the first Done call that finds the ticket
	// unfinished. mu orders that against finish, so the channel is
	// closed exactly once and a channel made late is never left open.
	done     chan struct{}
	mu       sync.Mutex
	finished atomic.Bool
	probe    bool
	joined   bool

	// Retryable records whether the server may re-run this request on a
	// failure-class outcome: the caller marked it retry-safe
	// (SubmitOptions.Retryable) and server-side retries are enabled.
	// Read-only after Submit.
	Retryable bool
}

// Wait returns the request's result once it finished (completed,
// cancelled, panicked, or failed by Close). It is the join of the
// spawn that Submit made: when no lane has started the request yet,
// Wait runs it on the calling goroutine, on the pool of the lane it
// was mailed to, instead of waiting for that lane's goroutine to wake;
// otherwise it blocks. Task panics are recovered into a *PanicError
// either way, never raised on the caller. The result of a cancelled or
// failed request is 0 with the classifying error: the request
// context's error for cancellations, a *PanicError for task panics,
// ErrClosed for requests drained by Close. Any number of goroutines may
// Wait on one ticket.
func (t *Ticket) Wait() (int64, error) {
	if !t.finished.Load() {
		if l := t.tn.srv.join(t); l != nil {
			l.serveOne(t)
			l.release()
		}
		// Unfinished here: another taker has it, it is queued behind busy
		// lanes, or the attempt above failed into a retry.
		if !t.finished.Load() {
			<-t.Done()
		}
	}
	return t.val, t.err
}

// closedChan is the Done channel of every ticket that finished before
// anyone asked for one.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Done returns a channel closed when the request finishes, for callers
// multiplexing tickets with select. Unlike Wait it never runs the
// request: a ticket that is only polled is served by a lane goroutine.
func (t *Ticket) Done() <-chan struct{} {
	if t.finished.Load() {
		return closedChan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished.Load() {
		return closedChan
	}
	if t.done == nil {
		t.done = make(chan struct{})
	}
	return t.done
}

// Latency returns the submit-to-finish latency; valid after Wait/Done.
func (t *Ticket) Latency() time.Duration { return t.latency }

// finish is the one finalizer: it counts the request's final outcome
// and publishes it, with end (since epoch) as the finishing stamp.
// Exactly one party calls it per ticket — whoever ran the last attempt,
// the retry path shedding it, or Close draining it.
func (t *Ticket) finish(val int64, err error, end time.Duration) {
	tn := t.tn
	switch {
	case err == nil:
		tn.completed.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		tn.cancelled.Add(1)
	default:
		tn.failed.Add(1)
	}
	t.val, t.err = val, err
	t.latency = end - t.submitted
	t.mu.Lock()
	t.finished.Store(true)
	if t.done != nil {
		close(t.done)
	}
	t.mu.Unlock()
}

// tenant is the runtime state of one configured Tenant.
type tenant struct {
	srv        *Server
	name       string
	weight     int
	maxPending int
	lanes      int

	// Resilience state; any of these is nil when its subsystem is
	// disabled server-wide.
	breaker *resilience.Breaker
	est     *resilience.Estimator
	retrier *resilience.Retrier

	// q[head:] is the FIFO of tickets waiting behind busy lanes and
	// mailed counts this tenant's tickets sitting in lane mailboxes;
	// together they are the tenant's pending requests. Guarded by the
	// server mutex.
	q      []*Ticket
	head   int
	mailed int

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

// queued is the number of tickets in the FIFO (server mutex held).
func (tn *tenant) queued() int { return len(tn.q) - tn.head }

// pending is what admission control bounds (server mutex held).
func (tn *tenant) pending() int { return tn.queued() + tn.mailed }

// push appends t to the FIFO (server mutex held). When the array is
// full and at least half of it is popped slots, the live tail slides to
// the front instead of append copying the dead prefix into a larger
// array, so a queue that never empties stays bounded too.
func (tn *tenant) push(t *Ticket) {
	if len(tn.q) == cap(tn.q) && tn.head > 0 && tn.head >= len(tn.q)/2 {
		n := copy(tn.q, tn.q[tn.head:])
		clear(tn.q[n:])
		tn.q, tn.head = tn.q[:n], 0
	}
	tn.q = append(tn.q, t)
}

// pop removes and returns the oldest queued ticket (server mutex
// held), or nil. An emptied queue rewinds to the start of its array.
func (tn *tenant) pop() *Ticket {
	if tn.head == len(tn.q) {
		return nil
	}
	t := tn.q[tn.head]
	tn.q[tn.head] = nil
	tn.head++
	if tn.head == len(tn.q) {
		tn.q, tn.head = tn.q[:0], 0
	}
	return t
}

// Server is the serving runtime. Create with New, submit with Submit,
// stop with Close.
type Server struct {
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
	closed bool
	// idle is the set of lanes with an empty mailbox and nobody on their
	// pool; a stack, so the lane released last is mailed first.
	idle []*lane
	// retryTimers holds the backoff timer of every ticket waiting to be
	// re-enqueued. Map presence is the ownership token between requeue
	// and Close: whoever removes the entry (or finds the map nil)
	// finalizes the ticket, so done is closed exactly once.
	retryTimers map[*Ticket]*time.Timer
	wg          sync.WaitGroup
}

// stack is the registry's entry for the direct task stack. Lane pools
// are built through it, so that the sched.Options → core.Options mapping
// and the capabilities New checks the options against stay written
// once; requests run on the *core.Pool itself.
var stack, _ = sched.Lookup("woolgen")

func newLanePool(o sched.Options) *core.Pool {
	return stack.NewPool(o).Native().(*core.Pool)
}

// New builds and starts a server: lanes are constructed (validating
// the lane pool options against the direct task stack's capabilities,
// see sched.CheckOptions) and their drain loops started. The caller
// must Close it.
func New(o Options) (*Server, error) {
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

	s := &Server{byName: map[string]*tenant{}}
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
		tn := &tenant{srv: s, name: tc.Name, weight: tc.Weight, maxPending: tc.MaxPending}
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
			l.pool.Load().Close()
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
			po.PrivateTasks = true
			if o.ConfigurePool != nil {
				o.ConfigurePool(laneIdx, &po)
			}
			if err := sched.CheckOptions(stack.Caps(), po); err != nil {
				return fail(fmt.Errorf("serve: lane %d options unsupported by the direct task stack: %w", laneIdx, err))
			}
			// A tracer's rings and an injector's agents are single-writer
			// per worker index, and every lane pool has a worker 0.
			for _, prev := range s.lanes {
				if (po.Trace != nil && po.Trace == prev.opts.Trace) || (po.Chaos != nil && po.Chaos == prev.opts.Chaos) {
					return fail(fmt.Errorf("serve: lanes %d and %d share one Pool.Trace or Pool.Chaos sink, which is single-writer per worker index; attach one per lane through Options.ConfigurePool", prev.idx, laneIdx))
				}
			}
			l := &lane{srv: s, idx: laneIdx, tn: tn, opts: po, wake: make(chan struct{}, 1)}
			l.timer = time.AfterFunc(time.Hour, l.wakeup)
			l.timer.Stop()
			l.pool.Store(newLanePool(po))
			s.lanes = append(s.lanes, l)
			laneIdx++
		}
	}

	// Every lane starts idle, lane 0 on top of the stack.
	for i := len(s.lanes) - 1; i >= 0; i-- {
		s.idle = append(s.idle, s.lanes[i])
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

// Submit hands job to the server for tenantName under ctx and returns
// its Ticket. It is the spawn of the paper's spawn/join pair: the
// request goes into the mailbox of an idle lane (one of the tenant's
// own first) and that lane's goroutine is woken, or, when every lane is
// busy, onto the tenant's queue; whoever gets to it first — the woken
// goroutine, or the caller's own Ticket.Wait — runs it. Submit never
// blocks: a tenant with MaxPending requests not yet started rejects
// with ErrOverloaded, an open breaker with ErrCircuitOpen, a doomed
// deadline with ErrDeadlineUnmeetable, a closed server with ErrClosed,
// an unknown tenant with ErrUnknownTenant (all wrapped with context). A
// nil ctx means context.Background(). ctx governs the request end to
// end: a cancellation before it starts fails the ticket at dispatch; a
// cancellation mid-run aborts the lane's pool.
func (s *Server) Submit(ctx context.Context, tenantName string, job Job) (*Ticket, error) {
	return s.SubmitWith(ctx, tenantName, job, SubmitOptions{})
}

// SubmitWith is Submit with per-submission options.
func (s *Server) SubmitWith(ctx context.Context, tenantName string, job Job, so SubmitOptions) (*Ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	submitted := time.Since(epoch)
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
	if tn.pending() >= tn.maxPending {
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
	if tn.est != nil {
		if dl, has := ctx.Deadline(); has && tn.est.Unmeetable(job.class(), dl.Sub(epoch)-submitted) {
			s.mu.Unlock()
			tn.rejected.Add(1)
			tn.shedDeadline.Add(1)
			return nil, fmt.Errorf("%w: tenant %q class %q", ErrDeadlineUnmeetable, tenantName, job.class())
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
		job: job, ctx: ctx, tn: tn, submitted: submitted,
		probe: probe, Retryable: so.Retryable && tn.retrier != nil,
	}
	l := s.dispatch(t)
	timer := l != nil && l.chooseWake()
	tn.submitted.Add(1)
	s.mu.Unlock()
	if l != nil {
		l.rouse(timer)
	}
	return t, nil
}

// dispatch routes t (server mutex held): into the mailbox of an idle
// lane — the most recently idle lane of t's own team, else the most
// recently idle lane of any team (work conservation) — or, with no
// lane idle, onto its tenant's queue. It returns the lane it mailed,
// whose goroutine the caller must wake: chooseWake before unlocking,
// rouse after. A mailed ticket that nobody Waits on is run by that
// goroutine and nobody else (invariant 2, progress without Wait).
func (s *Server) dispatch(t *Ticket) *lane {
	n := len(s.idle)
	if n == 0 {
		t.tn.push(t)
		return nil
	}
	k := n - 1
	for i := k; i >= 0; i-- {
		if s.idle[i].tn == t.tn {
			k = i
			break
		}
	}
	l := s.idle[k]
	copy(s.idle[k:], s.idle[k+1:])
	s.idle[n-1] = nil
	s.idle = s.idle[:n-1]
	l.mail, t.box = t, l
	t.tn.mailed++
	return l
}

// join is Wait's side of the race for a mailed ticket: if t still sits
// in a mailbox the caller takes it, and with it the lane, which is the
// caller's until it calls release (invariant 4). nil means somebody
// else has the ticket, or it is queued, and Wait blocks. Either way t
// is marked joined, so that a lane goroutine that serves it is woken
// next by its submitter's token, not the timer (lane.chooseWake).
func (s *Server) join(t *Ticket) *lane {
	s.mu.Lock()
	t.joined = true
	l := t.box
	if l != nil {
		l.unmail()
	}
	s.mu.Unlock()
	return l
}

// backlog returns the tenant whose queue lane l serves next (server
// mutex held): the home tenant first (team affinity), otherwise the
// most backlogged queue relative to its weight (work conservation — a
// free team helps the busiest tenant rather than idling), or nil when
// nothing is queued anywhere. A lane enters the idle set only on nil
// (invariant 3).
func (s *Server) backlog(l *lane) *tenant {
	if l.tn.queued() > 0 {
		return l.tn
	}
	var best *tenant
	var bestScore float64
	for _, tn := range s.tenants {
		if tn.queued() == 0 {
			continue
		}
		score := float64(tn.queued()) / float64(tn.weight)
		if best == nil || score > bestScore {
			best, bestScore = tn, score
		}
	}
	return best
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

// requeue dispatches a backed-off ticket again, unless Close claimed it
// first (then Close finalizes it), and wakes a lane it mails the way
// Submit does. A tenant that refilled to its bound while the ticket
// backed off sheds the retry: the ticket fails with ErrOverloaded
// rather than stretching the bound.
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
	if tn.pending() >= tn.maxPending {
		s.mu.Unlock()
		t.finish(0, fmt.Errorf("%w: tenant %q retry shed, %d pending", ErrOverloaded, tn.name, tn.maxPending), time.Since(epoch))
		return
	}
	l := s.dispatch(t)
	timer := l != nil && l.chooseWake()
	s.mu.Unlock()
	if l != nil {
		l.rouse(timer)
	}
}

// Close stops the server: pending requests (mailed, queued or backing
// off for a retry) are failed with ErrClosed, in-flight requests run to
// completion — including one a Wait caller is running on a borrowed
// lane — and every lane pool is closed by its lane's goroutine.
// Idempotent; Submit after Close returns ErrClosed.
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
		drained = append(drained, tn.q[tn.head:]...)
		tn.q, tn.head = nil, 0
	}
	// Close is the third taker of a mailed ticket. Idle lanes and
	// emptied mailboxes go back to their goroutines, which find nothing
	// to serve and shut down; a lane that is serving or borrowed gets
	// there when its request ends (next, release).
	back := s.idle
	s.idle = nil
	for _, l := range s.lanes {
		if l.mail != nil {
			drained = append(drained, l.unmail())
			back = append(back, l)
		}
	}
	for _, l := range back {
		l.back = true
	}
	// Claim the backing-off tickets: once retryTimers is nil, a timer
	// that fires anyway finds no entry and leaves finalization to us.
	timers := s.retryTimers
	s.retryTimers = nil
	s.mu.Unlock()
	for _, l := range back {
		l.wakeup()
	}
	for t, tm := range timers {
		tm.Stop()
		drained = append(drained, t)
	}
	for _, t := range drained {
		t.finish(0, ErrClosed, time.Since(epoch))
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
	Lanes int
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
	out := Stats{Lanes: len(s.lanes)}
	for _, l := range s.lanes {
		out.Quarantines += l.quarantines.Load()
		out.Replacements += l.replacements.Load()
	}
	s.mu.Lock()
	pending := make([]int, len(s.tenants))
	for i, tn := range s.tenants {
		pending[i] = tn.pending()
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
