package sched

import "gowool/internal/gen/ports"

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

func (wp *woolgenPool) RunRec(j RecJob) int64 {
	return ports.RunRec(wp.p, &ports.RecCtx{Leaf: j.Leaf, Split: j.Split}, j.Root, j.Reps)
}

func (wp *woolgenPool) RunRange(j RangeJob) int64 {
	return ports.RunRange(wp.p, &ports.RangeCtx{Leaf: j.Leaf}, j.N, j.Reps)
}
