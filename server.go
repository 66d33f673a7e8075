package gowool

import (
	"gowool/internal/poolerr"
	"gowool/internal/resilience"
	"gowool/internal/sched"
	"gowool/internal/serve"
)

// This file is the public surface of woolserve, the concurrent
// request-serving runtime over the scheduler (internal/serve,
// DESIGN.md §16). A Pool runs one root task at a time; a Server runs
// many — Submit hands a request to a lane of workers from any
// goroutine, a request's context cancels or times it out mid-flight,
// bounded queues shed overload, and weighted tenants get
// proportionally sized lane teams. Submit and Ticket.Wait are a spawn
// and its join: a Wait that finds its request not yet started by a
// lane's goroutine runs it on the calling goroutine, on that lane's
// pool, so a request that is waited for is not handed between
// goroutines at all; the lane goroutines serve the requests nobody
// joined (polled with Ticket.Done, never collected, or queued behind
// busy lanes). A lane's pool is the direct task stack with private
// tasks and a request runs on it through woolgen-generated ports: a
// one-worker lane has no thief, so a request's spawn/join pairs are
// plain stores and direct calls, and a cancellation reaches them
// through the goroutine running the request: it polls the context every
// few spawns and, once it has ended, trips the wire at that spawn.
//
// The server is self-healing (DESIGN.md §17): each tenant gets a
// circuit breaker that sheds submissions after a failure storm and
// probes its way back, deadline-aware admission sheds requests whose
// deadlines the learned service time says cannot be met, callers can
// mark requests retry-safe (Server.SubmitWith) for budgeted in-server
// retries, and a lane whose pool cannot be returned to service is
// quarantined and hot-replaced. ResilienceOptions (on ServerOptions)
// tunes or disables each mechanism; Server.Health exposes the state
// machines.
//
// The underlying per-request abort machinery is also public on Pool
// itself for programs that manage their own pools: Pool.Abort poisons
// a running pool so its Run unwinds with an *AbortError, Pool.Watch has
// the next Run's own goroutine poll a context and Abort when it ends,
// Pool.Poisoned observes the poison, and Pool.Reset returns the pool to
// service.

type (
	// Server is the serving runtime: create with NewServer, submit with
	// Server.Submit, stop with Server.Close.
	Server = serve.Server

	// ServerOptions configures NewServer; the zero value serves a
	// single anonymous tenant with GOMAXPROCS workers.
	ServerOptions = serve.Options

	// LaneOptions is a lane pool's options: the type of
	// ServerOptions.Pool and of what ServerOptions.ConfigurePool edits,
	// func(lane int, o *LaneOptions). NewServer refuses a setting the
	// direct task stack cannot honour.
	LaneOptions = sched.Options

	// Tenant declares one named request class with a weighted worker
	// team and its own bounded queue.
	Tenant = serve.Tenant

	// Ticket is a submitted request's handle. Ticket.Wait returns the
	// result, and may run the request on the calling goroutine to get
	// it (task panics are still recovered into *PanicError); Ticket.Done
	// only observes.
	Ticket = serve.Ticket

	// SubmitOptions qualifies one submission (Server.SubmitWith);
	// Retryable marks the request safe for budgeted in-server retries.
	SubmitOptions = serve.SubmitOptions

	// Job is a servable request, built with ServeRec or ServeRange.
	Job = serve.Job

	// ServerStats is a point-in-time server snapshot (Server.Stats).
	ServerStats = serve.Stats

	// TenantStats is one tenant's counters in a ServerStats.
	TenantStats = serve.TenantStats

	// ServerHealth is a point-in-time self-healing snapshot
	// (Server.Health): breaker positions, lane quarantine state,
	// failure streaks.
	ServerHealth = serve.Health

	// LaneHealth is one lane's self-healing state in a ServerHealth.
	LaneHealth = serve.LaneHealth

	// TenantHealth is one tenant's resilience state in a ServerHealth.
	TenantHealth = serve.TenantHealth

	// ResilienceOptions tunes (or disables) the server's self-healing
	// mechanisms (ServerOptions.Resilience); the zero value enables
	// them all with the documented defaults.
	ResilienceOptions = resilience.Options

	// TenantResilience overrides the server-wide resilience defaults
	// for one tenant (Tenant.Resilience); nil fields inherit.
	TenantResilience = resilience.TenantConfig

	// BreakerConfig tunes a tenant's circuit breaker: sliding
	// failure-rate window, cooldown, half-open probe count.
	BreakerConfig = resilience.BreakerConfig

	// BreakerHealth is a breaker's snapshot inside a TenantHealth.
	BreakerHealth = resilience.BreakerHealth

	// EstimatorConfig tunes deadline-aware admission's per-(tenant,
	// job class) service-time estimate.
	EstimatorConfig = resilience.EstimatorConfig

	// RetryConfig tunes the retry budget and backoff for requests
	// submitted with SubmitOptions.Retryable.
	RetryConfig = resilience.RetryConfig

	// QuarantineConfig tunes when a lane is pulled from rotation and
	// its pool hot-replaced.
	QuarantineConfig = resilience.QuarantineConfig

	// PanicError is a request's Wait error when its task tree panicked;
	// the server isolates the panic to that request.
	PanicError = serve.PanicError

	// AbortError is the panic value an aborted Run unwinds with
	// (Pool.Abort, or a Server's lane whose owner found the request's
	// context ended at one of its polls); it unwraps to the abort reason.
	AbortError = poolerr.AbortError

	// RecJob describes a binary divide-and-conquer job generically:
	// written once, runnable on any registered scheduler and servable
	// via ServeRec.
	RecJob = sched.RecJob

	// RangeJob describes an index-range job generically; servable via
	// ServeRange.
	RangeJob = sched.RangeJob
)

// Sentinel errors of the serving layer, matched with errors.Is.
var (
	// ErrOverloaded rejects a Submit that found the tenant's bounded
	// queue full (admission control; ServerOptions.MaxPending).
	ErrOverloaded = serve.ErrOverloaded

	// ErrCircuitOpen rejects a Submit while the tenant's circuit
	// breaker is open (failure storm; it re-admits via half-open
	// probes after the cooldown).
	ErrCircuitOpen = serve.ErrCircuitOpen

	// ErrDeadlineUnmeetable rejects a Submit whose context deadline is
	// closer than the learned service time for the request's job class
	// — shedding up front instead of burning a lane on a doomed run.
	ErrDeadlineUnmeetable = serve.ErrDeadlineUnmeetable

	// ErrServerClosed rejects submissions to, and fails tickets drained
	// by, a closed Server.
	ErrServerClosed = serve.ErrClosed

	// ErrUnknownTenant rejects a Submit naming an undeclared tenant.
	ErrUnknownTenant = serve.ErrUnknownTenant

	// ErrConcurrentRun is wrapped by the panic raised when two Run
	// calls overlap on the same pool (every pooled backend raises it;
	// a Server never does, serialization is its job).
	ErrConcurrentRun = poolerr.ErrConcurrentRun
)

// NewServer builds and starts a serving runtime. The caller must
// Close it.
func NewServer(o ServerOptions) (*Server, error) { return serve.New(o) }

// ServeRec wraps a divide-and-conquer job as a servable request. The
// call builds the job's port, and no run of the Job allocates, so build
// one Job per request class and submit it many times — from any
// goroutine, to any server — rather than wrapping the RecJob anew for
// every request.
func ServeRec(j RecJob) Job { return serve.Rec(j) }

// ServeRange wraps an index-range job as a servable request; like
// ServeRec's, the Job is worth reusing across submissions.
func ServeRange(j RangeJob) Job { return serve.Range(j) }
