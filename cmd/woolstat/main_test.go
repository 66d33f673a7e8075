package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites testdata/table.golden from this run:
// go test ./cmd/woolstat -run TestGolden -update. A change that runs it
// says in CHANGES.md which lines moved and why.
var update = flag.Bool("update", false, "rewrite testdata/table.golden")

// metric returns the value column of the table row named name.
func metric(t *testing.T, table, name string) string {
	t.Helper()
	for _, line := range strings.Split(table, "\n") {
		if v, ok := strings.CutPrefix(line, name+"  "); ok {
			return strings.TrimSpace(v)
		}
	}
	t.Fatalf("no %q row in:\n%s", name, table)
	return ""
}

func TestRun(t *testing.T) {
	tests := []struct {
		name  string
		args  []string
		code  int
		check func(t *testing.T, stdout, stderr string)
	}{{
		// RepSz is one repetition's work: the T_S of a one-rep run.
		name: "repsz is one repetition",
		args: []string{"-workload", "fib", "-n", "20", "-reps", "4"},
		check: func(t *testing.T, stdout, _ string) {
			var one, stderr bytes.Buffer
			if code := run([]string{"-workload", "fib", "-n", "20", "-reps", "1"}, &one, &stderr); code != 0 {
				t.Fatalf("-reps 1: exit %d: %s", code, stderr.String())
			}
			if got, want := metric(t, stdout, "RepSz"), metric(t, one.String(), "T_S (work)"); got != want {
				t.Errorf("RepSz at -reps 4 = %s, want the T_S of -reps 1, %s", got, want)
			}
		},
	}, {
		// Fewer than one repetition counts as one, as it does for a
		// native job: the table is the one-repetition table.
		name: "reps below one counts as one",
		args: []string{"-workload", "fib", "-n", "12", "-reps", "0"},
		check: func(t *testing.T, stdout, _ string) {
			var one, stderr bytes.Buffer
			if code := run([]string{"-workload", "fib", "-n", "12", "-reps", "1"}, &one, &stderr); code != 0 {
				t.Fatalf("-reps 1: exit %d: %s", code, stderr.String())
			}
			if strings.Contains(stdout, "NaN") || stdout != one.String() {
				t.Errorf("-reps 0 prints\n%s\nwant the -reps 1 table\n%s", stdout, one.String())
			}
		},
	}, {
		name: "unknown workload",
		args: []string{"-workload", "nosuch"},
		code: 2,
		check: func(t *testing.T, stdout, stderr string) {
			if stdout != "" || !strings.Contains(stderr, `unknown workload "nosuch"`) {
				t.Errorf("stdout %q, stderr %q", stdout, stderr)
			}
		},
	}}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr: %s", code, tc.code, stderr.String())
			}
			tc.check(t, stdout.String(), stderr.String())
		})
	}
}

// TestGolden pins the whole table for a fine-grained and an irregular
// workload: T_S, the spans and the steal counts come from the simulator
// and are deterministic.
func TestGolden(t *testing.T) {
	runs := [][]string{
		{"-workload", "fib", "-n", "20", "-reps", "4"},
		{"-workload", "cholesky", "-n", "200", "-nz", "800", "-reps", "2"},
	}
	var got bytes.Buffer
	for _, args := range runs {
		fmt.Fprintf(&got, "$ woolstat %s\n", strings.Join(args, " "))
		var stderr bytes.Buffer
		if code := run(args, &got, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
	}

	path := filepath.Join("testdata", "table.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("woolstat output differs from %s:\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
	}
}
