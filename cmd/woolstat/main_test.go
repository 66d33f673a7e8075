package main

import (
	"bytes"
	"strings"
	"testing"
)

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
