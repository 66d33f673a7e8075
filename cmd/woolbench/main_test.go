package main

import (
	"bytes"
	"strings"
	"testing"

	"gowool/internal/experiments"
)

// TestRun drives the command through run, the function main calls.
func TestRun(t *testing.T) {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	for _, c := range []struct {
		name     string
		args     []string
		code     int
		stdout   []string // substrings stdout must contain
		stderr   []string // substrings stderr must contain
		noStdout bool     // stdout must be empty (nothing ran)
	}{
		{name: "list", args: []string{"-list"}, code: 0, stdout: ids},
		{name: "table2 quick", args: []string{"-scale", "quick", "table2"}, code: 0,
			stdout: []string{"### table2 (Table II)", "overhead[ns/task]", "private tasks (all private)"}},
		{name: "unknown experiment", args: []string{"nosuch"}, code: 2,
			stderr: []string{`unknown experiment "nosuch"`}, noStdout: true},
		{name: "bad scale", args: []string{"-scale", "bogus"}, code: 2,
			stderr: []string{`unknown scale "bogus"`}, noStdout: true},
		{name: "bad scale beats -list", args: []string{"-scale", "bogus", "-list"}, code: 2, noStdout: true},
		{name: "removed -corejson", args: []string{"-corejson", "x"}, code: 2, noStdout: true},
		{name: "removed -registryjson", args: []string{"-registryjson", "x"}, code: 2, noStdout: true},
		{name: "removed -perfgate", args: []string{"-perfgate", "x"}, code: 2, noStdout: true},
		{name: "removed -trace", args: []string{"-trace", "x"}, code: 2, noStdout: true},
		{name: "removed -serve", args: []string{"-serve", "x"}, code: 2, noStdout: true},
		{name: "help", args: []string{"-h"}, code: 0,
			stderr: []string{"-stealsweep", "-scale", "-list", "table2"}, noStdout: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Errorf("run(%q) = %d, want %d\nstderr: %s", c.args, code, c.code, stderr.String())
			}
			for _, want := range c.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("run(%q) stdout lacks %q:\n%s", c.args, want, stdout.String())
				}
			}
			for _, want := range c.stderr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("run(%q) stderr lacks %q:\n%s", c.args, want, stderr.String())
				}
			}
			if c.noStdout && stdout.Len() != 0 {
				t.Errorf("run(%q) wrote to stdout: %s", c.args, stdout.String())
			}
		})
	}
}
