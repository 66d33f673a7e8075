package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// portsDirective returns the woolgen arguments of internal/gen/ports'
// go:generate line, with -out pointed at out, and copies the package's
// hand-written file beside out, where woolgen reads the task bodies.
func portsDirective(t *testing.T, out string) []string {
	t.Helper()
	src, err := os.ReadFile("../../internal/gen/ports/ports.go")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(filepath.Dir(out), "ports.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(src), "\n") {
		rest, ok := strings.CutPrefix(line, "//go:generate go run gowool/cmd/woolgen ")
		if !ok {
			continue
		}
		args := strings.Fields(rest)
		for i := range args {
			if args[i] == "-out" && i+1 < len(args) {
				args[i+1] = out
				return args
			}
		}
		t.Fatalf("directive has no -out: %q", line)
	}
	t.Fatal("no woolgen go:generate directive in internal/gen/ports/ports.go")
	return nil
}

func TestRun(t *testing.T) {
	tests := []struct {
		name  string
		args  func(t *testing.T, out string) []string
		code  int
		check func(t *testing.T, out, stdout, stderr string)
	}{{
		name: "ports directive reproduces ports_gen.go",
		args: portsDirective,
		check: func(t *testing.T, out, stdout, _ string) {
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile("../../internal/gen/ports/ports_gen.go")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("written file differs from the committed internal/gen/ports/ports_gen.go")
			}
			if !strings.Contains(stdout, "woolgen: wrote "+out) {
				t.Errorf("stdout %q", stdout)
			}
		},
	}, {
		name: "-h prints the usage",
		args: func(*testing.T, string) []string { return []string{"-h"} },
		check: func(t *testing.T, out, stdout, stderr string) {
			for _, flag := range []string{"usage: woolgen", "-pkg", "-out", "-task", "-import"} {
				if !strings.Contains(stderr, flag) {
					t.Errorf("usage lacks %q: %q", flag, stderr)
				}
			}
			if stdout != "" {
				t.Errorf("stdout %q", stdout)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("-h wrote %s", out)
			}
		},
	}, {
		name: "no task body beside -out",
		args: func(_ *testing.T, out string) []string {
			return []string{"-pkg", "p", "-out", out, "-task", "Fib:1"}
		},
		code: 1,
		check: func(t *testing.T, out, stdout, stderr string) {
			if stdout != "" || !strings.Contains(stderr, "no func fibBody") {
				t.Errorf("stdout %q, stderr %q", stdout, stderr)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("a failed generation wrote %s", out)
			}
		},
	}, {
		name: "missing -out",
		args: func(*testing.T, string) []string { return []string{"-pkg", "p", "-task", "A:1"} },
		code: 2,
		check: func(t *testing.T, _, stdout, stderr string) {
			if stdout != "" || !strings.Contains(stderr, "-out") {
				t.Errorf("stdout %q, stderr %q", stdout, stderr)
			}
		},
	}, {
		name: "malformed -task",
		args: func(_ *testing.T, out string) []string {
			return []string{"-pkg", "p", "-out", out, "-task", "A:x"}
		},
		code: 2,
		check: func(t *testing.T, out, stdout, stderr string) {
			if stdout != "" || stderr == "" {
				t.Errorf("stdout %q, stderr %q", stdout, stderr)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("a rejected command line wrote %s", out)
			}
		},
	}}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out_gen.go")
			var stdout, stderr bytes.Buffer
			if code := run(tc.args(t, out), &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr: %s", code, tc.code, stderr.String())
			}
			tc.check(t, out, stdout.String(), stderr.String())
		})
	}
}
