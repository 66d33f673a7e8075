// Command woolstat prints one workload's characteristics at chosen
// parameters, in the style of a row of the paper's Table I:
// parallelism under the abstract and realistic cost models,
// per-repetition size, task granularity G_T and load-balancing
// granularity G_L(p), all from the simulator.
//
//	woolstat -workload fib -n 20 -reps 4
//	woolstat -workload stress -height 9 -iters 256 -reps 64
//
// The whole built-in catalog is `woolbench table1`; live scheduler
// counters are `woolrun -stats`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"gowool/internal/costmodel"
	"gowool/internal/sim"
	"gowool/internal/tabulate"
	"gowool/internal/workloads/cholesky"
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/mm"
	"gowool/internal/workloads/ssf"
	"gowool/internal/workloads/stress"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main: it parses args, writes the
// table to stdout and diagnostics to stderr, and returns the exit code
// (0 ok, 2 bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("woolstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "fib", "workload: fib | stress | mm | ssf | cholesky")
	n := fs.Int64("n", 24, "size parameter")
	nz := fs.Int64("nz", 1000, "cholesky nonzeros")
	height := fs.Int64("height", 8, "stress height")
	iters := fs.Int64("iters", 256, "stress leaf iterations")
	reps := fs.Int64("reps", 16, "repetitions")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var root *sim.Def
	var simArgs sim.Args
	var name string
	switch *workload {
	case "fib":
		root, simArgs = fibw.NewSimReps(), sim.Args{A0: *n, A1: *reps}
		name = fmt.Sprintf("fib(%d)x%d", *n, *reps)
	case "stress":
		root, simArgs = stress.NewSimReps(), sim.Args{A0: *height, A1: *iters, A2: *reps}
		name = fmt.Sprintf("stress(h=%d,i=%d)x%d", *height, *iters, *reps)
	case "mm":
		root, simArgs = mm.NewSimReps(), sim.Args{A0: *n, A1: *reps}
		name = fmt.Sprintf("mm(%d)x%d", *n, *reps)
	case "ssf":
		wk := &ssf.Work{S: ssf.FibString(*n)}
		root, simArgs = ssf.NewSimReps(), sim.Args{A0: *reps, Ctx: wk}
		name = fmt.Sprintf("ssf(%d)x%d", *n, *reps)
	case "cholesky":
		root, simArgs = cholesky.NewSim().RepsDef(), sim.Args{A0: *reps, A1: *n, A2: *nz, A3: 42}
		name = fmt.Sprintf("cholesky(%d,%d)x%d", *n, *nz, *reps)
	default:
		fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
		return 2
	}

	span := sim.Run(sim.Config{
		Procs: 1, Kind: sim.KindDirectStack,
		Costs:     costmodel.Profile{Name: "zero"},
		TrackSpan: true,
	}, root, simArgs)
	work := float64(span.Work)

	t := tabulate.New("workload characteristics — "+name,
		"metric", "value")
	t.Row("T_S (work)", fmt.Sprintf("%.0f kcycles", work/1000))
	t.Row("RepSz", fmt.Sprintf("%.0f kcycles", work/float64(*reps)/1000))
	t.Row("tasks N_T", span.Total.Spawns)
	t.Row("G_T", fmt.Sprintf("%.0f cycles/task", work/float64(span.Total.Spawns)))
	t.Row("parallelism (O=0)", work/float64(span.Span0))
	t.Row("parallelism (O=2000)", work/float64(span.SpanO))
	for _, p := range []int{2, 4, 8} {
		res := sim.Run(sim.Config{Procs: p, Kind: sim.KindDirectStack,
			Costs: costmodel.Wool(), PrivateTasks: true,
			InitialPublic: 4, TripDistance: 2, PublishAmount: 4,
			Seed: 0x5eed + uint64(p)*977}, root, simArgs)
		gl := "inf"
		if res.Total.Steals > 0 {
			gl = fmt.Sprintf("%.0f kcycles/steal (%d steals)",
				work/float64(res.Total.Steals)/1000, res.Total.Steals)
		}
		t.Row(fmt.Sprintf("G_L(%d)", p), gl)
	}
	t.Render(stdout)
	return 0
}
