// Command woolrun runs a single workload on a chosen scheduler — the
// quick way to poke at the runtime: native execution on any scheduler
// in the registry, or a deterministic virtual-time simulation at any
// processor count.
//
// Examples:
//
//	woolrun -list
//	woolrun -workload fib -n 30 -workers 4 -private
//	woolrun -workload stress -height 8 -iters 256 -reps 1000 -workers 8
//	woolrun -workload mm -n 256 -sched chaselev
//	woolrun -workload ssf -n 14 -sched gonative
//	woolrun -workload cholesky -n 500 -nz 2000 -stats
//	woolrun -sim -workload fib -n 24 -workers 8
//	woolrun -workload fib -n 30 -workers 4 -trace out.json -stealmatrix
//	woolrun -workload fib -n 28 -workers 8 -stealpolicy localized -stealmatrix
//	woolrun -workload fib -n 28 -sched chaselev -stealpolicy last-victim
//	woolrun -checktrace out.json
//	woolrun -workload fib -n 25 -workers 4 -chaos cas-starve -chaosseed 7
//	woolrun -workload fib -n 30 -workers 4 -watchdog 5s
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/costmodel"
	"gowool/internal/sched"
	"gowool/internal/sim"
	"gowool/internal/steal"
	"gowool/internal/trace"
	"gowool/internal/workloads"
	"gowool/internal/wskit"
)

// config is one invocation's flags.
type config struct {
	workload, sched, traceOut, checkTrace, chaos string
	workers                                      int
	private, simulate, list, stats, stealMat     bool
	params                                       workloads.Params
	steal                                        steal.Config
	settle, watchdog                             time.Duration
	chaosSeed                                    uint64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main: it parses args, writes its
// report to stdout and diagnostics to stderr, and returns the exit code
// (0 ok, 1 a failed run or trace file, 2 bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	var c config
	fs := flag.NewFlagSet("woolrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "fib", strings.Join(workloads.Names(), " | "))
	fs.StringVar(&c.sched, "sched", "wool", "a registered scheduler (see -list), or serial")
	fs.IntVar(&c.workers, "workers", runtime.GOMAXPROCS(0), "worker count")
	fs.BoolVar(&c.private, "private", false, "enable private tasks (schedulers with the capability)")
	fs.BoolVar(&c.simulate, "sim", false, "run on the virtual-time simulator instead of natively")
	fs.BoolVar(&c.list, "list", false, "list the registered schedulers and exit")
	fs.Int64Var(&c.params.N, "n", 30, "size parameter (fib n, mm rows, ssf word index, cholesky rows)")
	fs.Int64Var(&c.params.NZ, "nz", 4000, "cholesky nonzeros")
	fs.Int64Var(&c.params.Height, "height", 8, "stress tree height")
	fs.Int64Var(&c.params.Iters, "iters", 256, "stress leaf iterations")
	fs.Int64Var(&c.params.Reps, "reps", 1, "repetitions (serialized parallel regions)")
	fs.BoolVar(&c.stats, "stats", false, "print scheduler statistics")

	fs.StringVar(&c.steal.Policy, "stealpolicy", "", "victim-selection policy: random | last-victim | sequential | localized (schedulers advertising steal policies; default: the backend's historical random)")

	fs.StringVar(&c.traceOut, "trace", "", "write a Chrome trace_event JSON of the run to this file (schedulers with the trace capability)")
	fs.BoolVar(&c.stealMat, "stealmatrix", false, "print the worker×worker steal matrix after the run (leapfrog steals marked *)")
	fs.StringVar(&c.checkTrace, "checktrace", "", "validate a Chrome trace JSON file produced by -trace, then exit")
	fs.DurationVar(&c.settle, "settle", 0, "idle this long after the run before exporting the trace, so idle workers reach their PARK transitions")

	fs.StringVar(&c.chaos, "chaos", "", "inject faults from this chaos profile (delay-heavy | cas-starve | park-flap; schedulers with the chaos capability)")
	fs.Uint64Var(&c.chaosSeed, "chaosseed", 1, "seed for -chaos; the same profile and seed replay the same injection sequence")
	fs.DurationVar(&c.watchdog, "watchdog", 0, "fail the run if no scheduler progress for this long (schedulers with the watchdog capability)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if c.list {
		listSchedulers(stdout)
		return 0
	}
	if c.checkTrace != "" {
		return validateTraceFile(stdout, stderr, c.checkTrace)
	}
	wl, ok := workloads.Lookup(c.workload)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q\n", c.workload)
		return 2
	}
	if c.sched == "serial" && !c.simulate {
		t0 := time.Now()
		result := wl.Serial(c.params)
		fmt.Fprintf(stdout, "result=%d elapsed=%v\n", result, time.Since(t0).Round(time.Microsecond))
		return 0
	}
	// Reject unknown steal names up front: pool construction would
	// panic on them later.
	if err := c.steal.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if c.simulate {
		c.runSim(stdout, wl)
		return 0
	}
	return c.runNative(stdout, stderr, wl)
}

// listSchedulers writes the registry: one block per scheduler with its
// capability flags and steal mechanism (the README's scheduler table
// is checked against this output).
func listSchedulers(w io.Writer) {
	for _, s := range sched.All() {
		c := s.Caps()
		fmt.Fprintf(w, "%-10s %s\n", s.Name(), capsTokens(c))
		fmt.Fprintf(w, "%-10s %s\n", "", s.Blurb())
		fmt.Fprintf(w, "%-10s steal: %s\n", "", c.Steal)
		if len(c.StealPolicies) > 0 {
			fmt.Fprintf(w, "%-10s policies: %s\n", "", strings.Join(c.StealPolicies, " "))
		}
	}
}

// capsTokens renders the boolean capability flags as a token list.
func capsTokens(c sched.Caps) string {
	var t []string
	for _, f := range []struct {
		on    bool
		token string
	}{{c.PrivateTasks, "private-tasks"}, {c.Stats, "stats"}, {c.TaskDefs, "taskdefs"},
		{c.Trace, "trace"}, {c.Chaos, "chaos"}, {c.Watchdog, "watchdog"}} {
		if f.on {
			t = append(t, f.token)
		}
	}
	if len(t) == 0 {
		return "-"
	}
	return strings.Join(t, " ")
}

func (c *config) runSim(w io.Writer, wl *workloads.Workload) {
	res := sim.Run(sim.Config{
		Procs: c.workers, Kind: sim.KindDirectStack,
		Costs: costmodel.Wool(), PrivateTasks: c.private,
		Steal: c.steal,
	}, wl.Sim(c.params))
	fmt.Fprintf(w, "result=%d makespan=%d cycles (%.3f ms at 2.5GHz)\n",
		res.Value, res.Makespan, float64(res.Makespan)/costmodel.CyclesPerNS/1e6)
	if c.stats {
		s := res.Total
		printCounts(w, s.Counts)
		fmt.Fprintf(w, "cycles NA=%d LA=%d ST=%d LF=%d\n", s.NA, s.LA, s.ST, s.LF)
	}
}

func (c *config) runNative(w, stderr io.Writer, wl *workloads.Workload) int {
	s, ok := sched.Lookup(c.sched)
	if !ok {
		fmt.Fprintf(stderr, "unknown scheduler %q (registered: %s, serial)\n",
			c.sched, strings.Join(sched.Names(), ", "))
		return 2
	}
	var tr *trace.Tracer
	if c.traceOut != "" || c.stealMat {
		tr = trace.New(c.workers, 0)
	}
	var inj *chaos.Injector
	if c.chaos != "" {
		prof, ok := chaos.ProfileByName(c.chaos)
		if !ok {
			var names []string
			for _, pr := range chaos.Profiles() {
				names = append(names, pr.Name)
			}
			fmt.Fprintf(stderr, "unknown chaos profile %q (profiles: %s)\n",
				c.chaos, strings.Join(names, ", "))
			return 2
		}
		inj = chaos.NewInjector(c.workers, prof, c.chaosSeed)
		fmt.Fprintf(w, "chaos: profile=%s seed=%d (replay with -chaos %s -chaosseed %d)\n",
			prof.Name, c.chaosSeed, prof.Name, c.chaosSeed)
	}
	opts := sched.Options{
		Workers: c.workers, PrivateTasks: c.private, Trace: tr,
		Chaos: inj, Watchdog: c.watchdog, Steal: c.steal,
	}
	// Fail fast on any flag the backend cannot honour — including an
	// unsupported MEMBER of a non-empty capability list (for example
	// an unknown -stealpolicy), which the old empty-list-only checks
	// silently fell back to the default on.
	if err := sched.CheckOptions(s.Caps(), opts); err != nil {
		fmt.Fprintf(stderr, "scheduler %s cannot run with these flags:\n%v\n", s.Name(), err)
		return 2
	}
	p := s.NewPool(opts)
	defer p.Close()

	t0 := time.Now()
	result, err := wl.Native(p, c.params)
	if err != nil {
		var use []string
		for _, t := range sched.All() {
			if t.Caps().TaskDefs {
				use = append(use, t.Name())
			}
		}
		fmt.Fprintf(stderr, "%v; %s has no port (use %s)\n", err, s.Name(), strings.Join(use, ", "))
		return 2
	}
	fmt.Fprintf(w, "result=%d elapsed=%v\n", result, time.Since(t0).Round(time.Microsecond))
	if c.stats {
		printStats(w, s, p)
	}
	if tr != nil {
		if c.settle > 0 {
			time.Sleep(c.settle)
		}
		return c.exportTrace(w, stderr, tr)
	}
	return 0
}

// exportTrace writes the Chrome trace file and/or prints the steal
// matrix from the run's tracer.
func (c *config) exportTrace(w, stderr io.Writer, tr *trace.Tracer) int {
	if c.traceOut != "" {
		f, err := os.Create(c.traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 1
		}
		err = tr.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(w, "trace: wrote %s (%d events, %d dropped)\n", c.traceOut, countTraceEvents(tr), tr.Dropped())
	}
	if c.stealMat {
		tr.StealMatrix().WriteText(w)
	}
	return 0
}

func countTraceEvents(tr *trace.Tracer) int {
	n := 0
	for _, evs := range tr.Snapshot() {
		n += len(evs)
	}
	return n
}

// validateTraceFile checks a -trace output file against the expected
// trace_event schema (the -checktrace mode used by `make trace-smoke`).
func validateTraceFile(w, stderr io.Writer, path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(stderr, "checktrace: %v\n", err)
		return 1
	}
	defer f.Close()
	n, err := trace.Validate(f)
	if err != nil {
		fmt.Fprintf(stderr, "checktrace: %s: %v\n", path, err)
		return 1
	}
	fmt.Fprintf(w, "checktrace: %s ok (%d events)\n", path, n)
	return 0
}

// printStats prints the shared counters, plus the backend-specific
// extras, when the scheduler keeps any.
func printStats(w io.Writer, s *sched.Scheduler, p *sched.Pool) {
	if !s.Caps().Stats {
		fmt.Fprintf(w, "(no stats: %s keeps no counters)\n", s.Name())
		return
	}
	st := p.Stats()
	printCounts(w, st.Counts)
	if keys := st.ExtraKeys(); len(keys) > 0 {
		var parts []string
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%d", k, st.Extra[k]))
		}
		fmt.Fprintln(w, strings.Join(parts, " "))
	}
}

// printCounts writes the shared counters on one line, in field order,
// for native and simulated runs alike: the two implementations of the
// protocol compare line by line.
func printCounts(w io.Writer, c wskit.Counts) {
	fmt.Fprintf(w, "spawns=%d joins_inlined_public=%d joins_inlined_private=%d joins_stolen=%d"+
		" steals=%d steal_attempts=%d backoffs=%d leap_steals=%d publications=%d privatizations=%d"+
		" retained_steals=%d parks=%d wakes=%d overflow_inlined=%d\n",
		c.Spawns, c.JoinsInlinedPublic, c.JoinsInlinedPrivate, c.JoinsStolen,
		c.Steals, c.StealAttempts, c.Backoffs, c.LeapSteals, c.Publications, c.Privatizations,
		c.RetainedSteals, c.Parks, c.Wakes, c.OverflowInlined)
}
