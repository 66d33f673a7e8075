package sched

import (
	"gowool/internal/core"
	"gowool/internal/gen/ports"
)

// Registered with wool's rank; file order keeps it right after wool in
// the presentation sequence — same scheduler, different port layer.
func init() { register(woolgenSched{}, 0) }

// woolgenSched is the paper's direct task stack behind the
// woolgen-generated monomorphic ports (internal/gen/ports) instead of
// the generic task-port layer: same core.Pool, same protocol, but
// RunRec/RunRange spawn through Spawn*/Join* functions whose private
// fast path flattens to plain descriptor stores and direct body calls
// (DESIGN.md §13). Registering it as its own backend runs the
// generated code under the full conformance, torture, panic and chaos
// surface the registry provides — the generated fast path has to agree
// with the serial reference under every profile the generic ports do.
type woolgenSched struct{}

func (woolgenSched) Name() string { return "woolgen" }
func (woolgenSched) Blurb() string {
	return "direct task stack behind woolgen-generated monomorphic ports: private-path spawn/join flattens to plain stores and direct body calls"
}
func (woolgenSched) Caps() Caps {
	c := woolSched{}.Caps()
	c.GeneratedPorts = true
	return c
}

func (woolgenSched) NewPool(o Options) Pool {
	wp := woolSched{}.NewPool(o).(*woolPool)
	return &woolgenPool{woolPool: *wp}
}

// woolgenPool shares wool's option/stats mapping and overrides only
// the job entry points.
type woolgenPool struct{ woolPool }

// genRec and genRange are jobs prepared for the generated ports: the
// port context is built once, on only enters the pool (see woolRec).
// woolgen defines its own prepared forms and Prepare methods rather
// than promoting wool's through the embedded pool: a job prepared here
// must spawn through ports.CallRec / ports.CallRange.
type genRec struct {
	c          *ports.RecCtx
	root, reps int64
}

type genRange struct {
	c       *ports.RangeCtx
	n, reps int64
}

func prepareGenRec(j RecJob) genRec {
	return genRec{&ports.RecCtx{Leaf: j.Leaf, Split: j.Split}, j.Root, reps(j.Reps)}
}

func prepareGenRange(j RangeJob) genRange {
	return genRange{&ports.RangeCtx{Leaf: j.Leaf}, j.N, reps(j.Reps)}
}

func (pt genRec) on(p *core.Pool) int64 {
	return p.Run(func(w *core.Worker) int64 {
		var total int64
		for r := int64(0); r < pt.reps; r++ {
			total += ports.CallRec(w, pt.c, pt.root)
		}
		return total
	})
}

func (pt genRange) on(p *core.Pool) int64 {
	return p.Run(func(w *core.Worker) int64 {
		var total int64
		for r := int64(0); r < pt.reps; r++ {
			total += ports.CallRange(w, pt.c, 0, pt.n)
		}
		return total
	})
}

func (pt genRec) Run(p Pool) int64   { return pt.on(p.Native().(*core.Pool)) }
func (pt genRange) Run(p Pool) int64 { return pt.on(p.Native().(*core.Pool)) }

func (woolgenSched) PrepareRec(j RecJob) Prepared     { return prepareGenRec(j) }
func (woolgenSched) PrepareRange(j RangeJob) Prepared { return prepareGenRange(j) }

func (wp *woolgenPool) RunRec(j RecJob) int64     { return prepareGenRec(j).on(wp.p) }
func (wp *woolgenPool) RunRange(j RangeJob) int64 { return prepareGenRange(j).on(wp.p) }
