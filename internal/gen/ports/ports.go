// Package ports holds the woolgen-generated monomorphic task ports
// for the registry's generic job shapes (DESIGN.md §13): the
// divide-and-conquer recursion (sched.RecJob), the balanced range
// splitter (sched.RangeJob), and the noop ladder task behind the
// spawn/join micro benchmarks. The woolgen scheduler backend
// (internal/sched) routes RunRec/RunRange through these ports, so the
// generated fast path runs under the full conformance, chaos, trace
// and woolvet surface the registry provides; internal/serve runs every
// request through them.
//
// The hand-written part of the package is the task bodies and RunRec /
// RunRange below; the bodies' expanded copies and the Spawn*/Join*/Call*
// plumbing around them are generated (ports_gen.go) and regenerated
// with `go generate ./...`.
package ports

//go:generate go run gowool/cmd/woolgen -pkg ports -out ports_gen.go -task Noop:1:batch -task Rec:1:ctx=*RecCtx -task Range:2:ctx=*RangeCtx

import "gowool/internal/core"

// RecCtx carries a recursion's body closures through the descriptor's
// context slot (a pointer store — no allocation per spawn). The shape
// mirrors sched.RecJob: Leaf decides and computes leaves, Split yields
// (inline, spawned) subproblems.
type RecCtx struct {
	Leaf  func(n int64) (int64, bool)
	Split func(n int64) (inline, spawned int64)
}

// recBody is the SPAWN/CALL/JOIN recursion of the paper's Figure 2
// over a RecCtx. woolgen expands it into recExpanded (ports_gen.go),
// with the SpawnRec and JoinRec fast paths in place; CallRec and every
// other generated routine run the expansion.
func recBody(w *core.Worker, c *RecCtx, n int64) int64 {
	if v, ok := c.Leaf(n); ok {
		return v
	}
	first, second := c.Split(n)
	SpawnRec(w, c, second)
	a := recBody(w, c, first)
	b := JoinRec(w)
	return a + b
}

// RunRec runs the recursion over c from root on p, reps times over —
// serialized regions of one Run; fewer than one counts as one, as in
// sched.RecJob — and returns the summed results. The root closure stays
// on the caller's stack, so a run allocates nothing.
//
//woolvet:noescape
func RunRec(p *core.Pool, c *RecCtx, root, reps int64) int64 {
	regions := max(reps, 1)
	return p.Run(func(w *core.Worker) int64 {
		var total int64
		for r := int64(0); r < regions; r++ {
			total += CallRec(w, c, root)
		}
		return total
	})
}

// RangeCtx carries a range reduction's leaf closure.
type RangeCtx struct {
	Leaf func(i int64) int64
}

// rangeBody is the balanced range splitter over [lo, hi) — the task
// tree Wool's loop constructs expand into. woolgen expands it into
// rangeExpanded, as recBody.
func rangeBody(w *core.Worker, c *RangeCtx, lo, hi int64) int64 {
	if hi-lo <= 1 {
		if hi <= lo {
			return 0
		}
		return c.Leaf(lo)
	}
	mid := (lo + hi) / 2
	SpawnRange(w, c, mid, hi)
	a := rangeBody(w, c, lo, mid)
	b := JoinRange(w)
	return a + b
}

// RunRange is RunRec for the range reduction over [0, n).
//
//woolvet:noescape
func RunRange(p *core.Pool, c *RangeCtx, n, reps int64) int64 {
	regions := max(reps, 1)
	return p.Run(func(w *core.Worker) int64 {
		var total int64
		for r := int64(0); r < regions; r++ {
			total += CallRange(w, c, 0, n)
		}
		return total
	})
}

// noopBody is the identity task behind the Table II spawn/join ladder:
// all cost measured around it is scheduler overhead.
func noopBody(w *core.Worker, x int64) int64 { return x }
