// Command woolgen emits monomorphic spawn/join/steal-handler code for
// declared task signatures (DESIGN.md §13). It is meant to be driven
// by go:generate directives in the declaring package:
//
//	//go:generate go run gowool/cmd/woolgen -pkg fibw -out fib_gen.go -task Fib:1
//
// For each -task Name:args[:ctx=TYPE][:batch] woolgen reads the user
// body function <name>Body from the package's hand-written files (the
// directory of -out) and writes <name>Expanded, the body with each
// Spawn<Name> statement and Join<Name> assignment expanded in place,
// plus Spawn<Name>, Join<Name> and Call<Name> (and the Spawn<Name>N /
// Join<Name>N batch pair with :batch) around it. The internal/gen
// drift test fails when a committed output goes stale or is
// hand-edited — regenerate with `go generate ./...`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"gowool/internal/gen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main: it parses args, writes the
// generated file, reports it on stdout and errors on stderr, and
// returns the exit code (0 ok or -h, 1 generation or write failed, 2
// bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	f, out, err := gen.FromArgs(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	src, err := gen.Generate(f)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := os.WriteFile(out, src, 0o644); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "woolgen: wrote %s (%d task signatures)\n", out, len(f.Sigs))
	return 0
}
