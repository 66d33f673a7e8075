package gen

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The woolgen command line is the single source of truth for what a
// package generates: the //go:generate directive in the hand-written
// source names the signatures, and the drift check re-parses that very
// line, regenerates, and byte-compares against the committed output.
// Regenerating is therefore always `go generate ./...` — there is no
// second spec to keep in sync.

// generatePrefix is the directive the drift scanner recognizes.
const generatePrefix = "//go:generate go run gowool/cmd/woolgen "

// stringList is a repeatable string flag.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }
func (l *stringList) Set(s string) error {
	*l = append(*l, s)
	return nil
}

// FromArgs parses woolgen's command line into a File declaration and
// the output path. Flags:
//
//	-pkg NAME     output package name (required)
//	-out FILE     output path (required)
//	-task SPEC    task signature, repeatable (see ParseSpec)
//	-import PATH  extra import path, repeatable
//
// The task bodies are read from the output's directory, the declaring
// package (File.Dir). Like a flag.FlagSet, FromArgs writes the usage
// (for -h) and every error it returns to output; a request for help
// returns flag.ErrHelp.
func FromArgs(args []string, output io.Writer) (File, string, error) {
	fs := flag.NewFlagSet("woolgen", flag.ContinueOnError)
	fs.SetOutput(output)
	fs.Usage = func() {
		fmt.Fprintln(output, "usage: woolgen -pkg NAME -out FILE -task SPEC [-task SPEC ...] [-import PATH ...]")
		fs.PrintDefaults()
	}
	pkg := fs.String("pkg", "", "output package name")
	out := fs.String("out", "", "output file path")
	var tasks, imports stringList
	fs.Var(&tasks, "task", "task signature Name:args[:ctx=TYPE][:batch] (repeatable)")
	fs.Var(&imports, "import", "extra import path (repeatable)")
	if err := fs.Parse(args); err != nil {
		return File{}, "", err
	}
	fail := func(err error) (File, string, error) {
		fmt.Fprintln(output, err)
		return File{}, "", err
	}
	if *pkg == "" || *out == "" {
		return fail(fmt.Errorf("woolgen: -pkg and -out are required"))
	}
	if len(fs.Args()) != 0 {
		return fail(fmt.Errorf("woolgen: unexpected arguments %q", fs.Args()))
	}
	f := File{Package: *pkg, Imports: imports, Dir: filepath.Dir(*out)}
	for _, spec := range tasks {
		sig, err := ParseSpec(spec)
		if err != nil {
			return fail(err)
		}
		f.Sigs = append(f.Sigs, sig)
	}
	if len(f.Sigs) == 0 {
		return fail(fmt.Errorf("woolgen: at least one -task is required"))
	}
	return f, *out, nil
}

// splitArgs splits a go:generate argument string on spaces (the
// directives this repo writes quote nothing).
func splitArgs(line string) []string {
	return strings.Fields(line)
}

// Check is the drift gate over the module rooted at root, and the
// generated code's one provenance check. It finds every woolgen
// go:generate directive in the module's hand-written sources,
// regenerates each declared output in memory from the task bodies as
// they stand and byte-compares it with the committed file: a mismatch
// means the output is stale (a body or the generator changed) or was
// hand-edited, and `go generate` must be re-run. Every *_gen.go file
// must also be some directive's -out: one that is not is hand-written
// code under the generated-output name, or output made outside
// woolgen, and the gate could not regenerate it.
//
// Like the go command, the walk skips testdata, directories whose
// names start with "." or "_", and nested modules. Check returns the
// directories (relative to root) whose sources carry a directive, so a
// new generating package joins the gate without a list to maintain,
// and every failure found, joined.
func Check(root string) ([]string, error) {
	var dirs, outputs []string
	var errs []error
	subject, declared := map[string]bool{}, map[string]bool{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if path == root {
				return nil
			}
			name := info.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, "_gen.go") {
			outputs = append(outputs, path)
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		found := false
		// Line-anchored: directive mentions in doc comments
		// (cmd/woolgen, this file) are not directives.
		for _, line := range strings.Split(string(src), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, generatePrefix) {
				continue
			}
			found = true
			out, err := verifyDirective(dir, strings.TrimPrefix(line, generatePrefix))
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %v", path, err))
			}
			if out != "" {
				declared[out] = true
			}
		}
		if found && !subject[dir] {
			subject[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, out := range outputs {
		if !declared[out] {
			errs = append(errs, fmt.Errorf("%s is named like a woolgen output but no woolgen directive declares it as -out: generate it through woolgen or rename it", out))
		}
	}
	for i, dir := range dirs {
		if dirs[i], err = filepath.Rel(root, dir); err != nil {
			return nil, err
		}
	}
	return dirs, errors.Join(errs...)
}

// verifyDirective regenerates the output that one directive in dir
// declares (args is the directive after the woolgen command) and
// compares it with the committed file. It returns the output's path
// once the directive parses, whether or not the output is fresh.
func verifyDirective(dir, args string) (string, error) {
	f, out, err := FromArgs(splitArgs(args), io.Discard)
	if err != nil {
		return "", err
	}
	out = filepath.Join(dir, out)
	f.Dir = filepath.Join(dir, f.Dir)
	want, err := Generate(f)
	if err != nil {
		return out, err
	}
	got, err := os.ReadFile(out)
	if err != nil {
		return out, fmt.Errorf("committed output missing: %v", err)
	}
	if !bytes.Equal(got, want) {
		return out, fmt.Errorf("%s is stale: regenerate with `go generate %s`", filepath.Base(out), dir)
	}
	return out, nil
}
