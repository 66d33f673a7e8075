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
	"unsafe"

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
// request path's garbage: a plain ticket is 64 bytes, one cache line
// and the 64-byte size class (TestServeRequestAllocs). What only some
// requests need — a context that can end, an error, a done channel, a
// retry's attempt count, a probe mark — lives in a ticketExt, made
// lazily, or allocated with the ticket in one object (fullTicket) when
// the request carries a cancellable context or a probe. At twice the
// request rate a 128-byte ticket was enough floating garbage, marked
// live while the GC's mark phase stretched, to move serve-tiny-closed's
// mem_peak_mb out of its bound (DESIGN.md §16.1).
type Ticket struct {
	job Job
	tn  *tenant
	// stamp is the request's first clock reading, since epoch, taken
	// once by SubmitWith before admission, which measures the deadline's
	// remaining budget from it too. finish turns it into the latency:
	// end − submitted, where end is the last attempt's end-of-attempt
	// stamp (lane.serveOne, which reads it again after a Reset), or the
	// clock read by whoever else finishes the ticket: a retry shed,
	// Close.
	stamp time.Duration

	// box is the lane whose mailbox holds the ticket; nil while it is
	// queued or backing off and once somebody took it. It is the word
	// the takers race for: the one that wins CompareAndSwap(box, nil)
	// owns the ticket and the lane (lane.go, invariant 1).
	//
	// woolvet:atomic methods=Load,Store,CompareAndSwap
	box atomic.Pointer[lane]

	// val is published by finish, with ticketFinished.
	val int64
	// ext is the extension, nil until something needs it.
	ext atomic.Pointer[ticketExt]
	// flags holds ticketFinished, ticketJoined and ticketPolled.
	flags atomic.Uint32

	// Retryable records whether the server may re-run this request on a
	// failure-class outcome: the caller marked it retry-safe
	// (SubmitOptions.Retryable) and server-side retries are enabled.
	// Read-only after Submit.
	Retryable bool
}

// Ticket flags. ticketJoined records that a Wait asked for the ticket
// and did not take it, ticketPolled that Done was asked before the
// ticket finished: with them chooseWake tells how a lane goroutine that
// served the ticket is to be woken next.
const (
	ticketFinished uint32 = 1 << iota
	ticketJoined
	ticketPolled
)

// ticketExt is the part of a ticket only some requests need.
type ticketExt struct {
	// ctx is the request's context when it can end (Done non-nil), else
	// nil.
	ctx context.Context
	err error
	// done holds the chan struct{} made by the first Done call that
	// found the ticket unfinished, or closedChan once finish has been.
	done atomic.Value
	// attempt counts completed runs; probe marks the ticket as a half-
	// open breaker probe whose outcome must be reported via ProbeDone.
	// Both are touched only by whoever runs the ticket (one attempt at
	// a time, handed on through the box CAS or the server mutex).
	attempt int
	probe   bool
}

// fullTicket is a ticket born with its extension, one allocation.
type fullTicket struct {
	Ticket
	x ticketExt
}

// newTicket builds an accepted request's ticket.
func newTicket(tn *tenant, ctx context.Context, job Job, submitted time.Duration, probe, retryable bool) *Ticket {
	done := ctx.Done() != nil
	if !done && !probe {
		return &Ticket{job: job, tn: tn, stamp: submitted, Retryable: retryable}
	}
	f := &fullTicket{Ticket: Ticket{job: job, tn: tn, stamp: submitted, Retryable: retryable}}
	if done {
		f.x.ctx = ctx
	}
	f.x.probe = probe
	f.ext.Store(&f.x)
	return &f.Ticket
}

// extension returns the ticket's extension, making it on first use;
// racing callers agree on one.
func (t *Ticket) extension() *ticketExt {
	if x := t.ext.Load(); x != nil {
		return x
	}
	if x := new(ticketExt); t.ext.CompareAndSwap(nil, x) {
		return x
	}
	return t.ext.Load()
}

// context is the request's context if it can end, else nil.
func (t *Ticket) context() context.Context {
	if x := t.ext.Load(); x != nil {
		return x.ctx
	}
	return nil
}

// drop undoes the admission of a ticket that will not be dispatched:
// a probe slot it holds goes back to the breaker.
func (t *Ticket) drop() {
	if x := t.ext.Load(); x != nil && x.probe {
		t.tn.breaker.ProbeSkipped()
	}
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
	if t.flags.Load()&ticketFinished == 0 {
		if l := t.join(); l != nil {
			l.serveOne(t)
			l.joins++
			yield := l.joins%joinsPerYield == 0
			l.release()
			if yield {
				runtime.Gosched()
			}
		}
		// Unfinished here: another taker has it, it is queued behind busy
		// lanes, or the attempt above failed into a retry.
		if t.flags.Load()&ticketFinished == 0 {
			<-t.Done()
		}
	}
	var err error
	if x := t.ext.Load(); x != nil {
		err = x.err
	}
	return t.val, err
}

// join is Wait's side of the race for a mailed ticket: if t still sits
// in a mailbox the caller takes it, and with it the lane, which is the
// caller's until it calls release (invariant 4). nil means somebody
// else has the ticket, or it is queued, and Wait blocks; t is then
// marked joined, so that a lane goroutine that serves it is woken next
// by its submitter's token, not the timer (lane.chooseWake). A retried
// ticket can be seen in box before its mailbox holds it; join leaves
// it to the goroutine then.
func (t *Ticket) join() *lane {
	if l := t.box.Load(); l != nil && l.mail.Load() == t && t.box.CompareAndSwap(l, nil) {
		l.took()
		return l
	}
	t.flags.Or(ticketJoined)
	return nil
}

// joinsPerYield is how many requests a lane serves on Wait callers
// between two yields of theirs (runtime.Gosched, after the release). A
// closed loop of joins never blocks, so its P never schedules, and the
// GC's background mark worker, which with two Ps runs only when a P
// schedules, waits for sysmon's preemption, 10 ms away: marking falls
// to allocation assists, the mark phase stretches to 10-20 ms, and
// every ticket allocated meanwhile is marked live and multiplied by
// GOGC into the next heap goal. A yield every 256 joins bounds that
// floating garbage to 16 KB of tickets per lane and costs well under
// 1 % (DESIGN.md §16.1, *Ledger, two clients*).
const joinsPerYield = 256

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
	f := t.flags.Load()
	if f&ticketFinished != 0 {
		return closedChan
	}
	if f&ticketPolled == 0 {
		t.flags.Or(ticketPolled)
	}
	x := t.extension()
	if c, ok := x.done.Load().(chan struct{}); ok {
		return c
	}
	c := make(chan struct{})
	if !x.done.CompareAndSwap(nil, c) {
		return x.done.Load().(chan struct{})
	}
	// finish sets finished before it looks for a channel, so if it has
	// not set it yet it will find c. If it has, it may have looked
	// before c was there: whichever of finish and this call takes c out
	// of the cell closes it.
	if t.flags.Load()&ticketFinished != 0 && x.done.CompareAndSwap(c, closedChan) {
		close(c)
	}
	return c
}

// Latency returns the submit-to-finish latency; valid after Wait/Done.
func (t *Ticket) Latency() time.Duration { return t.stamp }

// finish is the one finalizer: it counts the request's final outcome
// and publishes it, with end (since epoch) as the finishing stamp.
// Exactly one party calls it per ticket — whoever ran the last attempt,
// counting on its lane's cell c, or the retry path shedding it or Close
// draining it, counting on the tenant (c nil). It sets finished, then
// swaps closedChan into the done cell and closes the channel it swaps
// out (Done's side is there).
func (t *Ticket) finish(val int64, err error, end time.Duration, c *laneCell) {
	if c != nil {
		bump(c.outcome(err))
	} else {
		t.tn.outcome(err).Add(1)
	}
	t.val = val
	if err != nil {
		t.extension().err = err
	}
	t.stamp = end - t.stamp
	t.flags.Or(ticketFinished)
	if x := t.ext.Load(); x != nil && x.done.Load() != nil {
		if ch := x.done.Swap(closedChan).(chan struct{}); ch != closedChan {
			close(ch)
		}
	}
}

// counters are a tenant's request counters, and a lane's share of them.
type counters struct {
	submitted atomic.Int64
	completed atomic.Int64
	cancelled atomic.Int64
	failed    atomic.Int64
}

// outcome is the counter a request that finished with err counts on.
func (c *counters) outcome(err error) *atomic.Int64 {
	switch {
	case err == nil:
		return &c.completed
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return &c.cancelled
	default:
		return &c.failed
	}
}

// tenant is the runtime state of one configured Tenant.
type tenant struct {
	srv        *Server
	name       string
	idx        int // index in Server.tenants and in every lane's cells
	weight     int
	maxPending int
	lanes      int
	// order is the lanes in the order Submit tries them: the tenant's own
	// team by index, then the others by index. hints remembers, for each
	// caller slot (callerSlot), the home lane the caller claimed last, as
	// its index + 1; claimIdle tries it first and writes it only when it
	// changes.
	order []*lane
	hints [1 << hintBits]atomic.Int32

	// Resilience state; any of these is nil when its subsystem is
	// disabled server-wide.
	breaker *resilience.Breaker
	est     *resilience.Estimator
	retrier *resilience.Retrier

	// q[head:] is the FIFO of tickets waiting behind busy lanes; with the
	// tenant's tickets sitting in lane mailboxes they are its pending
	// requests. Guarded by the server mutex.
	q    []*Ticket
	head int

	// The counts of what no lane's cell counts: submissions that queued
	// and tickets finished off a lane (a retry shed, Close). Stats adds
	// the lanes' cells.
	_ [64]byte
	counters
	rejected atomic.Int64

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
func (tn *tenant) pending() int { return tn.queued() + tn.srv.mailed(tn) }

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

	// queued counts the tickets in every tenant's queue, and closed is
	// set by Close; both change under mu and are read without it, by
	// Submit's lock-free path and by release (lane.go, invariant 3).
	_      [64]byte
	queued atomic.Int64
	closed atomic.Bool
	_      [64]byte

	mu sync.Mutex
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
		tn := &tenant{srv: s, name: tc.Name, idx: ti, weight: tc.Weight, maxPending: tc.MaxPending}
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
			l.cells = make([]laneCell, len(s.tenants))
			for _, tn := range s.tenants {
				c := l.cell(tn)
				if tn.breaker != nil {
					c.brk = tn.breaker.NewShard()
				}
				if tn.est != nil {
					c.est = tn.est.NewShard()
				}
			}
			l.timer = time.AfterFunc(time.Hour, l.wakeup)
			l.timer.Stop()
			l.pool.Store(newLanePool(po))
			s.lanes = append(s.lanes, l)
			laneIdx++
		}
	}

	// Every lane starts idle (st's zero value). A tenant tries its own
	// team first.
	for _, tn := range s.tenants {
		for _, away := range []bool{false, true} {
			for _, l := range s.lanes {
				if (l.tn != tn) == away {
					tn.order = append(tn.order, l)
				}
			}
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
//
// While nothing is queued anywhere, a submission takes no lock: it
// claims an idle lane with a CAS on the lane's state word and mails it,
// and admission reads the breaker, the estimator and the server's
// flags without theirs. When MaxPending is within reach of the
// mailboxes, when something is queued, or when no lane is idle, it
// takes the server mutex, which orders it behind the queued tickets.
func (s *Server) SubmitWith(ctx context.Context, tenantName string, job Job, so SubmitOptions) (*Ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	submitted := time.Since(epoch)
	if s.closed.Load() {
		return nil, ErrClosed
	}
	tn, ok := s.byName[tenantName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenantName)
	}
	// pending <= mailed <= lanes while nothing is queued.
	locked := s.queued.Load() != 0 || tn.maxPending <= len(s.lanes)
	if locked {
		s.mu.Lock()
		if err := s.admitPending(tn); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	t, err := s.admit(ctx, tn, job, submitted, so)
	if err != nil {
		if locked {
			s.mu.Unlock()
		}
		return nil, err
	}
	if !locked {
		if l := s.claimIdle(tn); l != nil {
			return s.submitClaimed(l, t)
		}
		s.mu.Lock()
		if err := s.admitPending(tn); err != nil {
			s.mu.Unlock()
			t.drop()
			return nil, err
		}
	}
	l, timer := s.dispatch(t, true)
	s.mu.Unlock()
	if l != nil {
		l.rouse(timer)
	}
	return t, nil
}

// admitPending is the admission step that needs the server mutex (held):
// a closed server, and MaxPending.
func (s *Server) admitPending(tn *tenant) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if tn.pending() >= tn.maxPending {
		tn.shed(&tn.shedOverload)
		return fmt.Errorf("%w: tenant %q has %d pending", ErrOverloaded, tn.name, tn.maxPending)
	}
	return nil
}

// admit is the rest of admission — a chaos storm, a doomed deadline,
// the breaker, which decides last, so every earlier check sheds without
// having consumed a half-open probe slot — and builds the ticket.
func (s *Server) admit(ctx context.Context, tn *tenant, job Job, submitted time.Duration, so SubmitOptions) (*Ticket, error) {
	if s.inj.Fail(chaos.ServeSubmitStorm) {
		tn.shed(&tn.shedOverload)
		return nil, fmt.Errorf("%w: tenant %q storm-shed (chaos)", ErrOverloaded, tn.name)
	}
	if tn.est != nil {
		if dl, has := ctx.Deadline(); has && tn.est.Unmeetable(job.class(), dl.Sub(epoch)-submitted) {
			tn.shed(&tn.shedDeadline)
			return nil, fmt.Errorf("%w: tenant %q class %q", ErrDeadlineUnmeetable, tn.name, job.class())
		}
	}
	var probe bool
	if tn.breaker != nil {
		admit, p := tn.breaker.Allow()
		if !admit {
			tn.shed(&tn.shedCircuit)
			return nil, fmt.Errorf("%w: tenant %q", ErrCircuitOpen, tn.name)
		}
		probe = p
	}
	return newTicket(tn, ctx, job, submitted, probe, so.Retryable && tn.retrier != nil), nil
}

// shed counts a rejected submission under its cause.
func (tn *tenant) shed(cause *atomic.Int64) {
	tn.rejected.Add(1)
	cause.Add(1)
}

// claimIdle claims an idle lane for a ticket of tn —
// CompareAndSwap(idle, mailed) — or returns nil when every lane is
// taken. It tries the home lane the caller claimed last first, then the
// first idle lane of tn.order. The claimant owns the lane until it
// mails it (post).
//
// The hint keeps a client on one lane. Without it two closed-loop
// clients on two lanes, scanning in index order, traded lanes on about
// one request in six (the second client finds the first one's lane
// idle between two of its requests), and every trade moved the lane's
// pool, cells and shards between CPUs; the second client also read the
// first one's state line on every request. That cost a quarter of the
// CPU per request against two clients on two servers (DESIGN.md
// §16.1, *Ledger, two clients*).
func (s *Server) claimIdle(tn *tenant) *lane {
	hint := &tn.hints[callerSlot()]
	if h := hint.Load(); h != 0 {
		if l := s.lanes[h-1]; l.st.Load() == laneIdle && l.st.CompareAndSwap(laneIdle, laneMailed) {
			return l
		}
	}
	for _, l := range tn.order {
		if l.st.Load() == laneIdle && l.st.CompareAndSwap(laneIdle, laneMailed) {
			if h := int32(l.idx + 1); l.tn == tn && hint.Load() != h {
				hint.Store(h)
			}
			return l
		}
	}
	return nil
}

// hintBits sizes a tenant's lane hints: 1<<hintBits slots, so that two
// clients share a slot, and trade its lane through it, rarely.
const hintBits = 6

// callerSlot is the calling goroutine's hint slot: a hash of an address
// on its stack, an identity that costs no allocation and no shared
// write. A stack that grows is copied elsewhere, and the goroutine then
// learns a hint in another slot.
func callerSlot() uint64 {
	var onStack byte
	return uint64(uintptr(unsafe.Pointer(&onStack))>>10) * 0x9e3779b97f4a7c15 >> (64 - hintBits)
}

// submitClaimed is the end of a lock-free Submit: count the submission
// on the claimed lane's cell, mail the ticket, wake the goroutine. Close
// may have begun after the claim and passed this lane already, so the
// submitter looks at the closed flag after mailing: if it is set and
// the ticket is still in the mailbox, the submitter takes it back,
// un-counts it and hands the lane to its goroutine, which closes the
// pool. If another taker won the ticket, that taker finishes it.
func (s *Server) submitClaimed(l *lane, t *Ticket) (*Ticket, error) {
	c := l.cell(t.tn)
	bump(&c.submitted)
	timer := l.post(t)
	if s.closed.Load() && t.box.CompareAndSwap(l, nil) {
		l.took()
		c.submitted.Store(c.submitted.Load() - 1)
		t.drop()
		l.handBack()
		return nil, ErrClosed
	}
	l.rouse(timer)
	return t, nil
}

// dispatch routes t (server mutex held): while nothing is queued, into
// the mailbox of an idle lane — t's own team's first, else any
// (claimIdle) — or else onto its tenant's queue. fresh counts the
// submission (a retry is not one). It returns the lane whose goroutine
// the caller must wake after unlocking, and how (rouse): the lane it
// mailed, or an idle lane it found for the queue. A mailed ticket that
// nobody Waits on is run by that goroutine and nobody else (invariant
// 2, progress without Wait).
func (s *Server) dispatch(t *Ticket, fresh bool) (l *lane, timer bool) {
	tn := t.tn
	if s.queued.Load() == 0 {
		if l = s.claimIdle(tn); l != nil {
			if fresh {
				bump(&l.cell(tn).submitted)
			}
			return l, l.post(t)
		}
	}
	if fresh {
		tn.submitted.Add(1)
	}
	return s.enqueue(t), false
}

// enqueue queues t (server mutex held). The other half of invariant 3's
// Dekker pair with release: the count goes up first, then a lane that
// went idle meanwhile is claimed for the queue and handed to its
// goroutine, which the caller wakes after unlocking.
func (s *Server) enqueue(t *Ticket) *lane {
	t.tn.push(t)
	s.queued.Add(1)
	for _, l := range t.tn.order {
		if l.st.Load() == laneIdle && l.st.CompareAndSwap(laneIdle, laneBusy) {
			l.back.Store(true)
			return l
		}
	}
	return nil
}

// pop takes the oldest ticket from tn's queue (server mutex held).
func (s *Server) pop(tn *tenant) *Ticket {
	s.queued.Add(-1)
	return tn.pop()
}

// mailed counts tn's tickets sitting in lane mailboxes: a scan, read
// without a lock (invariant 5).
func (s *Server) mailed(tn *tenant) (n int) {
	for _, l := range s.lanes {
		if t := l.mail.Load(); t != nil && t.tn == tn && t.box.Load() == l {
			n++
		}
	}
	return n
}

// backlog returns the tenant whose queue lane l serves next (server
// mutex held): the home tenant first (team affinity), otherwise the
// most backlogged queue relative to its weight (work conservation — a
// free team helps the busiest tenant rather than idling), or nil when
// nothing is queued anywhere. next parks a lane idle only on nil
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
		t.finish(0, fmt.Errorf("%w: tenant %q retry shed, %d pending", ErrOverloaded, tn.name, tn.maxPending), time.Since(epoch), nil)
		return
	}
	l, timer := s.dispatch(t, false)
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
	if s.closed.Load() {
		s.mu.Unlock()
		return
	}
	s.closed.Store(true)
	close(s.closeCh)
	var drained []*Ticket
	for _, tn := range s.tenants {
		drained = append(drained, tn.q[tn.head:]...)
		tn.q, tn.head = nil, 0
	}
	s.queued.Store(0)
	// Claim the backing-off tickets: once retryTimers is nil, a timer
	// that fires anyway finds no entry and leaves finalization to us.
	timers := s.retryTimers
	s.retryTimers = nil
	s.mu.Unlock()
	// Close is the third taker of a mailed ticket. Idle lanes and
	// emptied mailboxes go back to their goroutines, which find nothing
	// to serve and shut down; a lane that is serving or borrowed gets
	// there when its request ends (next, release).
	for _, l := range s.lanes {
		if t := l.shut(); t != nil {
			drained = append(drained, t)
		}
	}
	for t, tm := range timers {
		tm.Stop()
		drained = append(drained, t)
	}
	for _, t := range drained {
		t.finish(0, ErrClosed, time.Since(epoch), nil)
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
		var sum [4]int64
		add := func(c *counters) {
			sum[0] += c.submitted.Load()
			sum[1] += c.completed.Load()
			sum[2] += c.cancelled.Load()
			sum[3] += c.failed.Load()
		}
		add(&tn.counters)
		for _, l := range s.lanes {
			add(&l.cell(tn).counters)
		}
		out.Tenants = append(out.Tenants, TenantStats{
			Name:            tn.name,
			Weight:          tn.weight,
			Lanes:           tn.lanes,
			Pending:         pending[i],
			Submitted:       sum[0],
			Completed:       sum[1],
			Rejected:        tn.rejected.Load(),
			Cancelled:       sum[2],
			Failed:          sum[3],
			ShedOverload:    tn.shedOverload.Load(),
			ShedCircuitOpen: tn.shedCircuit.Load(),
			ShedDeadline:    tn.shedDeadline.Load(),
			Retried:         tn.retried.Load(),
		})
	}
	return out
}
