// Package poolerr holds the error values shared by every pool backend's
// lifecycle surface, so callers (and the cross-backend conformance
// suite) can recognize a lifecycle failure without matching on
// backend-specific message strings.
//
// The backends deliberately keep their Run signature result-only (a
// spawn/join runtime returns the root's value, not an error), so
// lifecycle violations surface as panics — but the panic *values* are
// errors built here, and errors.Is/errors.As see through the
// per-backend prefix:
//
//	defer func() {
//		if r := recover(); r != nil {
//			if err, ok := r.(error); ok && errors.Is(err, poolerr.ErrConcurrentRun) { ... }
//		}
//	}()
package poolerr

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrConcurrentRun is the sentinel wrapped by the panic every pooled
// backend raises when Run is called while another Run is in flight on
// the same pool. The root-join protocol assumes a single root: worker 0
// is driven by the calling goroutine, so two overlapping Runs would
// interleave two task trees on one stack and corrupt the join order.
// Backends detect the overlap with a CAS on a running flag and panic
// with ConcurrentRun(name) instead.
var ErrConcurrentRun = errors.New("concurrent Run on the same pool")

// ConcurrentRun builds the panic value for a concurrent-Run violation
// on the named backend. errors.Is(v, ErrConcurrentRun) holds.
func ConcurrentRun(backend string) error {
	return fmt.Errorf("%s: %w", backend, ErrConcurrentRun)
}

// Class is the structured error taxonomy of the serving stack
// (DESIGN.md §17): every request outcome falls into one of three
// buckets, and the resilience layer's decisions — what a circuit
// breaker counts as a failure, what a retry budget may re-run, what a
// lane's failure streak should include — key off the bucket rather
// than off concrete error types, so new failure modes classify
// themselves by implementing Classed (or by being built with the
// Retryable/NonRetryable/Shed wrappers) instead of growing switch
// statements in every consumer.
type Class uint8

const (
	// ClassUnknown is the zero class: the error carries no
	// classification. Consumers treat it conservatively (a failure for
	// health accounting, not safe to retry).
	ClassUnknown Class = iota
	// ClassRetryable marks a transient, server-side failure: the same
	// request may succeed on a healthy lane (task panics, watchdog
	// trips). It counts as a failure for breakers and lane health, and
	// a caller-marked retry-safe request may be re-run against the
	// retry budget.
	ClassRetryable
	// ClassNonRetryable marks a deliberate, caller-owned outcome —
	// cancellations, deadline expiry mid-flight — that re-running
	// cannot change. It counts as neither a breaker failure nor a
	// retry candidate.
	ClassNonRetryable
	// ClassShed marks load deliberately rejected at a boundary before
	// (or instead of) occupying a lane: admission-control overflow, an
	// open circuit, an unmeetable deadline. Sheds are the system
	// working as designed, so they never count as breaker failures and
	// are never retried server-side.
	ClassShed
)

// String returns the stable class name (used in stats and docs).
func (c Class) String() string {
	switch c {
	case ClassRetryable:
		return "retryable"
	case ClassNonRetryable:
		return "non-retryable"
	case ClassShed:
		return "shed"
	default:
		return "unknown"
	}
}

// Classed is implemented by errors that classify themselves.
// ClassOf finds the first implementer on the Unwrap chain.
type Classed interface {
	error
	ErrorClass() Class
}

// classed attaches a Class to an error without disturbing errors.Is /
// errors.As matching of the wrapped value.
type classed struct {
	err error
	c   Class
}

func (e *classed) Error() string     { return e.err.Error() }
func (e *classed) Unwrap() error     { return e.err }
func (e *classed) ErrorClass() Class { return e.c }

// Retryable wraps err as ClassRetryable. nil stays nil.
func Retryable(err error) error { return wrapClass(err, ClassRetryable) }

// NonRetryable wraps err as ClassNonRetryable. nil stays nil.
func NonRetryable(err error) error { return wrapClass(err, ClassNonRetryable) }

// Shed wraps err as ClassShed. nil stays nil.
func Shed(err error) error { return wrapClass(err, ClassShed) }

func wrapClass(err error, c Class) error {
	if err == nil {
		return nil
	}
	return &classed{err: err, c: c}
}

// ClassOf classifies err: the first Classed implementer on the Unwrap
// chain wins; context.Canceled and context.DeadlineExceeded anywhere
// on the chain classify as non-retryable (the caller gave up — the
// serving layer converts a request-scoped AbortError to its context
// reason, so both spellings land here); everything else is
// ClassUnknown and left to the caller's conservative default.
func ClassOf(err error) Class {
	for err != nil {
		if ce, ok := err.(Classed); ok {
			return ce.ErrorClass()
		}
		if err == context.Canceled || err == context.DeadlineExceeded {
			return ClassNonRetryable
		}
		err = errors.Unwrap(err)
	}
	return ClassUnknown
}

// AbortError is the panic value a request-scoped abort injects into a
// running root (DESIGN.md §16): Pool.Abort(reason) poisons the pool
// with an *AbortError, the protocol's abort checks re-raise it on the
// workers, and Run re-raises it to the caller, which unwraps Reason —
// typically a context error — to classify the outcome. It is a
// distinct type so serving layers can tell a deliberate cancellation
// from a genuine task panic.
type AbortError struct {
	// Reason is what the aborter passed to Abort — for the serving
	// layer, the request context's ctx.Err().
	Reason error
}

// Error describes the abort.
func (e *AbortError) Error() string {
	if e.Reason == nil {
		return "run aborted"
	}
	return "run aborted: " + e.Reason.Error()
}

// Unwrap exposes the abort reason to errors.Is/errors.As (so a caller
// sees context.Canceled through the wrapper).
func (e *AbortError) Unwrap() error { return e.Reason }

// ErrorClass classifies an abort as non-retryable: the abort was
// deliberate (a cancellation or an operator action), so re-running the
// request cannot change the outcome the aborter wanted.
func (e *AbortError) ErrorClass() Class { return ClassNonRetryable }

// WatchdogError is the distinct failure a tripped stuck-run watchdog
// (core's Options.Watchdog) raises out of Pool.Run: some worker sat
// blocked in a join for at least Interval while the pool's progress
// heartbeat was flat and nobody was executing stolen work. It lives
// here, beside AbortError, so a serving layer can name it without
// importing the scheduler; the trip logic and the bundle's contents
// are core's (watchdog.go).
type WatchdogError struct {
	// Interval is the configured no-progress threshold.
	Interval time.Duration
	// Bundle is the human-readable diagnostic dump taken at trip time:
	// per-worker protocol state and counters, and — when a tracer is
	// attached — the steal matrix and each worker's last trace events.
	Bundle string
}

// Error summarizes the trip; the full dump is in Bundle.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("core: watchdog tripped: no scheduler progress for %v with a blocked join outstanding\n%s", e.Interval, e.Bundle)
}

// ErrorClass classifies a watchdog trip as retryable (DESIGN.md §17):
// the trip names a stuck scheduler state, not a property of the
// request, so re-running the request — typically after the lane's pool
// was Reset or replaced — may well succeed. The serving layer's
// breakers and lane-quarantine streaks count it as a failure for the
// same reason.
func (e *WatchdogError) ErrorClass() Class { return ClassRetryable }
