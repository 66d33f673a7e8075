package gen

import (
	"bytes"
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

// DiscoverDirs walks root and returns every directory (relative to
// root) whose hand-written sources carry a woolgen go:generate
// directive — the drift gate's subjects. New generating packages are
// picked up automatically; nothing maintains a directory list.
func DiscoverDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if name := info.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_gen.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// Line-anchored, exactly like VerifyDir: directive mentions in
		// doc comments (cmd/woolgen, this file) are not subjects.
		directive := false
		for _, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), generatePrefix) {
				directive = true
				break
			}
		}
		if !directive {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			dirs = append(dirs, rel)
		}
		return nil
	})
	return dirs, err
}

// VerifyDir finds every woolgen go:generate directive in dir's
// hand-written sources, regenerates each declared output in memory
// from the task bodies as they stand and byte-compares it with the
// committed file. A non-nil error means the committed output is stale
// (a body or the generator changed, or the output was hand-edited) and
// `go generate` must be re-run. It returns the number of directives
// checked.
func VerifyDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	checked := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return checked, err
		}
		for _, line := range strings.Split(string(src), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, generatePrefix) {
				continue
			}
			f, out, err := FromArgs(splitArgs(strings.TrimPrefix(line, generatePrefix)), io.Discard)
			if err != nil {
				return checked, fmt.Errorf("%s: %v", e.Name(), err)
			}
			f.Dir = filepath.Join(dir, f.Dir)
			want, err := Generate(f)
			if err != nil {
				return checked, fmt.Errorf("%s: %v", e.Name(), err)
			}
			got, err := os.ReadFile(filepath.Join(dir, out))
			if err != nil {
				return checked, fmt.Errorf("%s: committed output missing: %v", e.Name(), err)
			}
			if !bytes.Equal(got, want) {
				return checked, fmt.Errorf("%s is stale: regenerate with `go generate %s`", out, dir)
			}
			checked++
		}
	}
	return checked, nil
}
