package wskit

// Counts are the scheduler events the paper counts, declared once for
// both implementations of its protocol (core natively, sim in virtual
// time) and for every baseline: N_T is Spawns, N_M is Steals, and the
// joins split by what they paid (§III-B: a public inline join pays an
// atomic exchange, a private one none, a stolen one waits or
// leapfrogs). A backend that has no such event leaves its field at
// zero; counters only one backend keeps live in its own Stats, beside
// an embedded Counts.
//
// core.Stats is this struct and sits in core.Worker's owner cache-line
// group: a field added here grows every worker's owner-private state.
type Counts struct {
	Spawns              int64 // tasks created (N_T)
	JoinsInlinedPublic  int64 // joins that inlined a public task (atomic exchange paid)
	JoinsInlinedPrivate int64 // joins that inlined a private task (no atomics)
	JoinsStolen         int64 // joins that found their task stolen
	Steals              int64 // successful steals (N_M)
	StealAttempts       int64 // steal attempts, successful or not
	Backoffs            int64 // aborted thief/victim synchronizations (per backend: sched.Stats)
	LeapSteals          int64 // successful steals made while leapfrogging
	Publications        int64 // trip-wire publications
	Privatizations      int64 // public-boundary pull-downs
	RetainedSteals      int64 // successful steals from the retained victim (last-victim hits)
	Parks               int64 // times a worker parked on the idle engine
	Wakes               int64 // targeted wakes this worker issued to parked peers
	OverflowInlined     int64 // spawns degraded to inline execution on a full task pool (not in Spawns)
}

// Add adds o's counts to c.
func (c *Counts) Add(o *Counts) {
	c.Spawns += o.Spawns
	c.JoinsInlinedPublic += o.JoinsInlinedPublic
	c.JoinsInlinedPrivate += o.JoinsInlinedPrivate
	c.JoinsStolen += o.JoinsStolen
	c.Steals += o.Steals
	c.StealAttempts += o.StealAttempts
	c.Backoffs += o.Backoffs
	c.LeapSteals += o.LeapSteals
	c.Publications += o.Publications
	c.Privatizations += o.Privatizations
	c.RetainedSteals += o.RetainedSteals
	c.Parks += o.Parks
	c.Wakes += o.Wakes
	c.OverflowInlined += o.OverflowInlined
}

// JoinsInlined returns the joins that inlined their task, public and
// private.
func (c Counts) JoinsInlined() int64 { return c.JoinsInlinedPublic + c.JoinsInlinedPrivate }

// Joins returns all joins: inlined and stolen.
func (c Counts) Joins() int64 { return c.JoinsInlined() + c.JoinsStolen }
