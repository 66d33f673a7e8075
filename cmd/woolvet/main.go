// Command woolvet runs the woolvet analyzer suite (internal/analysis)
// over the repository: compile-time enforcement of the direct-task-
// stack protocol invariants — atomic access discipline on the shared
// protocol words, owner-privacy of the task-stack indices, the padded
// cache-line layout, spawn/join balance in workload code, the
// publication-ordering dataflow rules, and the compiler perf budget
// (inlining and escape). See DESIGN.md §10 and §15 for the invariants
// and the annotation vocabulary.
//
// Usage:
//
//	go run ./cmd/woolvet ./...          # lint the whole module (CI)
//	go run ./cmd/woolvet ./internal/core
//	go run ./cmd/woolvet -only atomicfield,layoutguard ./...
//	go run ./cmd/woolvet -github ./...  # GitHub Actions annotations
//	go run ./cmd/woolvet -json ./...    # machine-readable findings
//	go run ./cmd/woolvet -mlog out/ ./...  # dump raw -gcflags=-m logs
//	go run ./cmd/woolvet -list
//
// Exit status: 0 clean, 1 findings reported, 2 usage or load error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gowool/internal/analysis"
)

// finding is the -json output record for one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main: it parses args, writes findings
// to stdout and diagnostics to stderr, and returns the exit code (0
// clean, 1 findings reported, 2 usage or load error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("woolvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listFlag := fs.Bool("list", false, "list the analyzers and exit")
	onlyFlag := fs.String("only", "", "comma-separated subset of analyzers to run")
	jsonFlag := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	ghFlag := fs.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	mlogFlag := fs.String("mlog", "", "directory to write the raw -gcflags=-m compiler logs into")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: woolvet [-list] [-only a,b] [-json] [-github] [-mlog dir] [packages]\n")
		fs.PrintDefaults()
	}
	// fail reports a usage or load error.
	fail := func(err error) int {
		fmt.Fprintln(stderr, "woolvet:", err)
		return 2
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *listFlag {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *jsonFlag && *ghFlag {
		fmt.Fprintln(stderr, "woolvet: -json and -github are mutually exclusive")
		return 2
	}

	analyzers := analysis.All()
	if *onlyFlag != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(*onlyFlag, ","))
		if err != nil {
			return fail(err)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	loader, err := analysis.NewLoader(wd)
	if err != nil {
		return fail(err)
	}
	pkgs, err := loader.LoadPatterns(patterns...)
	if err != nil {
		return fail(err)
	}

	var findings []finding
	for _, pkg := range pkgs {
		for _, d := range analysis.RunAnalyzers(pkg, analyzers) {
			pos := pkg.Fset.Position(d.Pos)
			findings = append(findings, finding{
				File:     relPath(wd, pos.Filename),
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
	}

	if *mlogFlag != "" {
		if err := writeMLogs(*mlogFlag); err != nil {
			return fail(err)
		}
	}

	switch {
	case *jsonFlag:
		// Emit [] rather than null on a clean run so consumers can
		// always range over the result.
		if findings == nil {
			findings = []finding{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			return fail(err)
		}
	case *ghFlag:
		for _, f := range findings {
			// GitHub Actions workflow-command format; %0A would encode
			// newlines, but diagnostics are single-line.
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=woolvet/%s::%s\n",
				f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	default:
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// relPath makes filenames repo-relative so GitHub annotations attach
// to the right file regardless of the runner's checkout directory.
func relPath(wd, name string) string {
	if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

// writeMLogs dumps the raw compiler -m output captured by the
// perfbudget pass, one file per analyzed package, for the CI failure
// artifact.
func writeMLogs(dir string) error {
	logs := analysis.CompilerLogs()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for pkgDir, raw := range logs {
		name := strings.ReplaceAll(strings.Trim(filepath.ToSlash(pkgDir), "/"), "/", "_") + ".m.log"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(raw), 0o644); err != nil {
			return err
		}
	}
	return nil
}
