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
//	woolrun -workload fib -n 28 -sched chaselev -stealpolicy last-victim -stealamount half
//	woolrun -checktrace out.json
//	woolrun -workload fib -n 25 -workers 4 -chaos cas-starve -chaosseed 7
//	woolrun -workload fib -n 30 -workers 4 -watchdog 5s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/chaselev"
	"gowool/internal/core"
	"gowool/internal/costmodel"
	"gowool/internal/locksched"
	"gowool/internal/sched"
	"gowool/internal/sim"
	"gowool/internal/steal"
	"gowool/internal/trace"
	"gowool/internal/workloads/cholesky"
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/mm"
	"gowool/internal/workloads/ssf"
	"gowool/internal/workloads/stress"
	"gowool/internal/wskit"
)

// flags is the command's flag set; a package-level set rather than
// flag.CommandLine, so tests can reset and re-parse it (see run).
var flags = flag.NewFlagSet("woolrun", flag.ExitOnError)

var (
	workload  = flags.String("workload", "fib", "fib | stress | mm | ssf | cholesky")
	schedName = flags.String("sched", "wool", "a registered scheduler (see -list), or serial")
	workers   = flags.Int("workers", runtime.GOMAXPROCS(0), "worker count")
	private   = flags.Bool("private", false, "enable private tasks (schedulers with the capability)")
	simulate  = flags.Bool("sim", false, "run on the virtual-time simulator instead of natively")
	list      = flags.Bool("list", false, "list the registered schedulers and exit")
	n         = flags.Int64("n", 30, "size parameter (fib n, mm rows, ssf word index, cholesky rows)")
	nz        = flags.Int64("nz", 4000, "cholesky nonzeros")
	height    = flags.Int64("height", 8, "stress tree height")
	iters     = flags.Int64("iters", 256, "stress leaf iterations")
	reps      = flags.Int64("reps", 1, "repetitions (serialized parallel regions)")
	stats     = flags.Bool("stats", false, "print scheduler statistics")

	stealPolicy = flags.String("stealpolicy", "", "victim-selection policy: random | last-victim | sequential | localized (schedulers advertising steal policies; default: the backend's historical random)")
	stealAmount = flags.String("stealamount", "", "tasks per steal: one | half (schedulers advertising steal amounts)")

	traceOut   = flags.String("trace", "", "write a Chrome trace_event JSON of the run to this file (schedulers with the trace capability)")
	stealMat   = flags.Bool("stealmatrix", false, "print the worker×worker steal matrix after the run (leapfrog steals marked *)")
	checkTrace = flags.String("checktrace", "", "validate a Chrome trace JSON file produced by -trace, then exit")
	settle     = flags.Duration("settle", 0, "idle this long after the run before exporting the trace, so idle workers reach their PARK transitions")

	chaosName = flags.String("chaos", "", "inject faults from this chaos profile (delay-heavy | cas-starve | park-flap; schedulers with the chaos capability)")
	chaosSeed = flags.Uint64("chaosseed", 1, "seed for -chaos; the same profile and seed replay the same injection sequence")
	watchdog  = flags.Duration("watchdog", 0, "fail the run if no scheduler progress for this long (schedulers with the watchdog capability)")
)

// stealConfig builds the victim-policy config from the -stealpolicy /
// -stealamount flags, rejecting unknown names up front (pool
// construction would panic on them later).
func stealConfig() steal.Config {
	cfg := steal.Config{Policy: *stealPolicy, Amount: *stealAmount}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return cfg
}

func main() {
	flags.Parse(os.Args[1:])
	run(os.Stdout)
}

// run does what the parsed flags ask, writing its report to stdout;
// usage errors still go to os.Stderr and exit.
func run(stdout io.Writer) {
	if *list {
		listSchedulers(stdout)
		return
	}
	if *checkTrace != "" {
		validateTraceFile(stdout, *checkTrace)
		return
	}
	if *simulate {
		runSim(stdout)
		return
	}
	runNative(stdout)
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
			fmt.Fprintf(w, "%-10s policies: %s | amounts: %s\n", "",
				strings.Join(c.StealPolicies, " "), strings.Join(c.StealAmounts, " "))
		}
	}
}

// capsTokens renders the boolean capability flags as a token list.
func capsTokens(c sched.Caps) string {
	var t []string
	if c.PrivateTasks {
		t = append(t, "private-tasks")
	}
	if c.Stats {
		t = append(t, "stats")
	}
	if c.TaskDefs {
		t = append(t, "taskdefs")
	}
	if c.Trace {
		t = append(t, "trace")
	}
	if c.Chaos {
		t = append(t, "chaos")
	}
	if c.Watchdog {
		t = append(t, "watchdog")
	}
	if len(t) == 0 {
		return "-"
	}
	return strings.Join(t, " ")
}

func runSim(w io.Writer) {
	var def *sim.Def
	var args sim.Args
	switch *workload {
	case "fib":
		def, args = fibw.NewSimReps(), sim.Args{A0: *n, A1: *reps}
	case "stress":
		def, args = stress.NewSimReps(), sim.Args{A0: *height, A1: *iters, A2: *reps}
	case "mm":
		def, args = mm.NewSimReps(), sim.Args{A0: *n, A1: *reps}
	case "ssf":
		wk := &ssf.Work{S: ssf.FibString(*n)}
		def, args = ssf.NewSimReps(), sim.Args{A0: *reps, Ctx: wk}
	case "cholesky":
		def, args = cholesky.NewSim().RepsDef(), sim.Args{A0: *reps, A1: *n, A2: *nz, A3: 42}
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	res := sim.Run(sim.Config{
		Procs: *workers, Kind: sim.KindDirectStack,
		Costs: costmodel.Wool(), PrivateTasks: *private,
		Steal: stealConfig(),
	}, def, args)
	fmt.Fprintf(w, "result=%d makespan=%d cycles (%.3f ms at 2.5GHz)\n",
		res.Value, res.Makespan, float64(res.Makespan)/costmodel.CyclesPerNS/1e6)
	if *stats {
		s := res.Total
		printCounts(w, s.Counts)
		fmt.Fprintf(w, "cycles NA=%d LA=%d ST=%d LF=%d\n", s.NA, s.LA, s.ST, s.LF)
	}
}

func runNative(w io.Writer) {
	if *schedName == "serial" {
		t0 := time.Now()
		result := runSerial()
		fmt.Fprintf(w, "result=%d elapsed=%v\n", result, time.Since(t0).Round(time.Microsecond))
		return
	}

	s, ok := sched.Lookup(*schedName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scheduler %q (registered: %s, serial)\n",
			*schedName, strings.Join(sched.Names(), ", "))
		os.Exit(2)
	}
	var tr *trace.Tracer
	if *traceOut != "" || *stealMat {
		tr = trace.New(*workers, 0)
	}
	var inj *chaos.Injector
	if *chaosName != "" {
		prof, ok := chaos.ProfileByName(*chaosName)
		if !ok {
			var names []string
			for _, pr := range chaos.Profiles() {
				names = append(names, pr.Name)
			}
			fmt.Fprintf(os.Stderr, "unknown chaos profile %q (profiles: %s)\n",
				*chaosName, strings.Join(names, ", "))
			os.Exit(2)
		}
		inj = chaos.NewInjector(*workers, prof, *chaosSeed)
		fmt.Fprintf(w, "chaos: profile=%s seed=%d (replay with -chaos %s -chaosseed %d)\n",
			prof.Name, *chaosSeed, prof.Name, *chaosSeed)
	}
	opts := sched.Options{
		Workers: *workers, PrivateTasks: *private, Trace: tr,
		Chaos: inj, Watchdog: *watchdog, Steal: stealConfig(),
	}
	// Fail fast on any flag the backend cannot honour — including an
	// unsupported MEMBER of a non-empty capability list (for example
	// -stealamount half on the direct task stack), which the old
	// empty-list-only checks silently fell back to the default on.
	if err := sched.CheckOptions(s.Caps(), opts); err != nil {
		fmt.Fprintf(os.Stderr, "scheduler %s cannot run with these flags:\n%v\n", s.Name(), err)
		os.Exit(2)
	}
	p := s.NewPool(opts)
	defer p.Close()

	t0 := time.Now()
	var result int64
	switch *workload {
	case "fib":
		result = p.RunRec(fibw.Job(*n, *reps))
	case "stress":
		result = p.RunRec(stress.Job(*height, *iters, *reps))
	case "mm":
		result = p.RunRange(mm.Job(mm.New(*n), *reps))
	case "ssf":
		result = p.RunRange(ssf.Job(&ssf.Work{S: ssf.FibString(*n)}, *reps))
	case "cholesky":
		result = runCholesky(s, p)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	fmt.Fprintf(w, "result=%d elapsed=%v\n", result, time.Since(t0).Round(time.Microsecond))
	if *stats {
		printStats(w, s, p)
	}
	if tr != nil {
		if *settle > 0 {
			time.Sleep(*settle)
		}
		exportTrace(w, tr)
	}
}

// exportTrace writes the Chrome trace file and/or prints the steal
// matrix from the run's tracer.
func exportTrace(w io.Writer, tr *trace.Tracer) {
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := tr.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "trace: wrote %s (%d events, %d dropped)\n", *traceOut, countTraceEvents(tr), tr.Dropped())
	}
	if *stealMat {
		tr.StealMatrix().WriteText(w)
	}
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
func validateTraceFile(w io.Writer, path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "checktrace: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	n, err := trace.Validate(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "checktrace: %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "checktrace: %s ok (%d events)\n", path, n)
}

// runCholesky instantiates the generic factorization for backends that
// expose DefineC3-style task constructors (Caps.TaskDefs): the
// workload's irregular spawn structure doesn't fit the RunRec/RunRange
// shapes, so it reaches the concrete pool through Pool.Native.
func runCholesky(s *sched.Scheduler, p *sched.Pool) int64 {
	var factor func(m *cholesky.Matrix)
	switch np := p.Native().(type) {
	case *core.Pool:
		sc := cholesky.New(core.DefineC3[cholesky.Arena])
		factor = func(m *cholesky.Matrix) { sc.Factor(np.Run, m) }
	case *chaselev.Pool:
		sc := cholesky.New(chaselev.DefineC3[cholesky.Arena])
		factor = func(m *cholesky.Matrix) { sc.Factor(np.Run, m) }
	case *locksched.Pool:
		sc := cholesky.New(locksched.DefineC3[cholesky.Arena])
		factor = func(m *cholesky.Matrix) { sc.Factor(np.Run, m) }
	default:
		var use []string
		for _, t := range sched.All() {
			if t.Caps().TaskDefs {
				use = append(use, t.Name())
			}
		}
		fmt.Fprintf(os.Stderr, "cholesky needs task definitions; %s has no port (use %s)\n", s.Name(), strings.Join(use, ", "))
		os.Exit(2)
	}
	var total int64
	for r := int64(0); r < *reps; r++ {
		m := cholesky.Generate(*n, *nz, 42+uint64(r))
		factor(m)
		total += m.Ar.NodesInUse()
	}
	return total
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

func runSerial() int64 {
	var total int64
	for r := int64(0); r < *reps; r++ {
		switch *workload {
		case "fib":
			total += fibw.Serial(*n)
		case "stress":
			total += stress.Serial(*height, *iters)
		case "mm":
			m := mm.New(*n)
			mm.Serial(m)
			total += *n
		case "ssf":
			total += ssf.Serial(ssf.FibString(*n), nil)
		case "cholesky":
			m := cholesky.Generate(*n, *nz, 42+uint64(r))
			m.Factor()
			total += m.Ar.NodesInUse()
		default:
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			os.Exit(2)
		}
	}
	return total
}
