// Command woolbench regenerates the tables and figures of the paper's
// evaluation (Faxén, "Efficient Work Stealing for Fine Grained
// Parallelism", ICPP 2010) and runs the steal-policy sweep.
//
// Usage:
//
//	woolbench [-scale quick|full] [experiment ...]
//	woolbench -list
//	woolbench [-scale quick|full] -stealsweep FILE
//
// With no experiment arguments every experiment runs in order. The
// multi-processor experiments run on the deterministic virtual-time
// simulator (see DESIGN.md for the substitution rationale);
// single-processor overhead ladders additionally run natively.
//
// Performance evidence does not come from here: the repository's
// benchmark is bench/ (see BENCHMARK.json and `make bench`).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gowool/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main: it parses args, writes
// results to stdout and diagnostics to stderr, and returns the exit
// code (0 ok, 1 an experiment or the sweep failed, 2 bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("woolbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleFlag := fs.String("scale", "quick", "input scale: quick or full")
	list := fs.Bool("list", false, "list experiments and exit")
	stealsweep := fs.String("stealsweep", "", "run the steal-policy sweep (policy × backend × workload natively, plus the sharded-topology simulator grid) and write machine-readable results to `FILE`; honours -scale")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: woolbench [-scale quick|full] [experiment ...]\n       woolbench -list\n       woolbench [-scale quick|full] -stealsweep FILE\n\nflags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nexperiments:\n")
		listExperiments(stderr, "  ")
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *list {
		listExperiments(stdout, "")
		return 0
	}

	if *stealsweep != "" {
		if err := runStealSweep(stdout, *stealsweep, scale == experiments.Full); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	ids := fs.Args()
	if len(ids) == 0 {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q (try -list)\n", id)
			return 2
		}
		fmt.Fprintf(stdout, "### %s (%s) — %s [scale=%s]\n\n", e.ID, e.Paper, e.Title, *scaleFlag)
		t0 := time.Now()
		if err := e.Run(scale, stdout); err != nil {
			fmt.Fprintf(stderr, "%s failed: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	return 0
}

func listExperiments(w io.Writer, indent string) {
	for _, e := range experiments.All() {
		fmt.Fprintf(w, "%s%-8s %-12s %s\n", indent, e.ID, e.Paper, e.Title)
	}
}
