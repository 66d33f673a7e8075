package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gowool/internal/analysis"
)

// TestRun drives the command through its flags. The package rows run
// in a module of their own in a temp dir: a clean package, and
// packages with a single woolvet:atomic field declared as a plain
// int64. Rows run from the module root unless they name a directory,
// where local patterns resolve as go vet resolves them.
func TestRun(t *testing.T) {
	mod := t.TempDir()
	seeded := func(pkg string) string {
		return "package " + pkg + "\n\ntype worker struct {\n\t// woolvet:atomic\n\tbot int64\n}\n"
	}
	files := map[string]string{
		"go.mod":                           "module vetseed\n\ngo 1.24\n",
		"clean/clean.go":                   "package clean\n\n// Twice doubles n.\nfunc Twice(n int) int { return 2 * n }\n",
		"seeded/seeded.go":                 seeded("seeded"),
		"internal/core/core.go":            seeded("core"),
		"internal/workloads/fib/fib.go":    seeded("fib"),
		"internal/workloads/stress/str.go": seeded("stress"),
	}
	for name, body := range files {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var names []string
	for _, a := range analysis.All() {
		names = append(names, a.Name)
	}
	const violation = ": atomicfield: field bot is tagged woolvet:atomic but declared as int64"
	tests := []struct {
		name   string
		dir    string // working directory, relative to the module root
		args   []string
		code   int
		stdout []string // substrings stdout must contain
		stderr string   // a substring stderr must contain
	}{
		{name: "list names every analyzer", args: []string{"-list"}, stdout: names},
		{name: "unknown analyzer", args: []string{"-only", "bogus"}, code: 2, stderr: `unknown analyzer "bogus"`},
		{name: "json and github", args: []string{"-json", "-github"}, code: 2, stderr: "mutually exclusive"},
		{name: "clean package", args: []string{"./clean"}},
		{name: "seeded violation", args: []string{"./seeded"}, code: 1,
			stdout: []string{"seeded/seeded.go:5:2" + violation}},
		{name: "local patterns from a subdirectory", dir: "internal", args: []string{"./core", "./workloads/..."}, code: 1,
			stdout: []string{"core/core.go:5:2" + violation, "workloads/fib/fib.go:5:2" + violation,
				"workloads/stress/str.go:5:2" + violation}},
		{name: "parent pattern from a subdirectory", dir: "internal/core", args: []string{"../workloads/fib"}, code: 1,
			stdout: []string{"internal/workloads/fib/fib.go:5:2" + violation}},
		{name: "pattern outside the module", dir: "internal", args: []string{"../.."}, code: 2, stderr: "outside the module"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			t.Chdir(filepath.Join(mod, tc.dir))
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stdout %q, stderr %q", code, tc.code, stdout.String(), stderr.String())
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
				}
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr.String())
			}
		})
	}
}

// TestPassesMatchREADME checks the pass names in README's woolvet
// table against analysis.All(): the same passes, in the same order. A
// row in parentheses names a check that is not a pass of its own.
func TestPassesMatchREADME(t *testing.T) {
	var passes []string
	for _, a := range analysis.All() {
		passes = append(passes, a.Name)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "| pass | checks |\n")
	if !ok {
		t.Fatal(`README has no woolvet table (header "| pass | checks |")`)
	}
	var table []string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		table = append(table, strings.Trim(strings.TrimSpace(cells[1]), "`"))
	}

	if !slices.Equal(table, passes) {
		t.Errorf("README woolvet table disagrees with analysis.All():\nREADME: %v\nAll():  %v", table, passes)
	}
}
