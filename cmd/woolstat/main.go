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
	"strings"

	"gowool/internal/experiments"
	"gowool/internal/sim"
	"gowool/internal/tabulate"
	"gowool/internal/workloads"
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
	var p workloads.Params
	name := fs.String("workload", "fib", "workload: "+strings.Join(workloads.Names(), " | "))
	fs.Int64Var(&p.N, "n", 24, "size parameter")
	fs.Int64Var(&p.NZ, "nz", 1000, "cholesky nonzeros")
	fs.Int64Var(&p.Height, "height", 8, "stress height")
	fs.Int64Var(&p.Iters, "iters", 256, "stress leaf iterations")
	fs.Int64Var(&p.Reps, "reps", 16, "repetitions")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	wl, ok := workloads.Lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		return 2
	}
	p = p.Norm()

	procs := []int{2, 4, 8}
	span, steals := experiments.Characterize(func() sim.Root { return wl.Sim(p) }, procs)
	work := float64(span.Work)

	t := tabulate.New("workload characteristics — "+wl.Label(p),
		"metric", "value")
	t.Row("T_S (work)", fmt.Sprintf("%.0f kcycles", work/1000))
	t.Row("RepSz", fmt.Sprintf("%.0f kcycles", work/float64(p.Reps)/1000))
	t.Row("tasks N_T", span.Total.Spawns)
	t.Row("G_T", fmt.Sprintf("%.0f cycles/task", work/float64(span.Total.Spawns)))
	t.Row("parallelism (O=0)", work/float64(span.Span0))
	t.Row("parallelism (O=2000)", work/float64(span.SpanO))
	for i, p := range procs {
		gl := "inf"
		if steals[i] > 0 {
			gl = fmt.Sprintf("%.0f kcycles/steal (%d steals)", work/float64(steals[i])/1000, steals[i])
		}
		t.Row(fmt.Sprintf("G_L(%d)", p), gl)
	}
	t.Render(stdout)
	return 0
}
