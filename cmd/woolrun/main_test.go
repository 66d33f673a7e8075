package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gowool/internal/sched"
	"gowool/internal/workloads"
)

// update rewrites testdata/stats.golden from this run:
// go test ./cmd/woolrun -run TestStatsGolden -update. A change that
// runs it says in CHANGES.md which lines moved and why.
var update = flag.Bool("update", false, "rewrite testdata/stats.golden")

// woolrun runs the command with args and returns what it wrote to
// stdout; it fails the test on a nonzero exit.
func woolrun(t *testing.T, args ...string) string {
	t.Helper()
	var out, stderr bytes.Buffer
	if code := run(args, &out, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	return out.String()
}

// runInputs are TestRun's inputs per table workload, with the result=
// each prints at one and at two repetitions.
var runInputs = map[string]struct {
	args       []string
	one, twice string
}{
	"fib":      {[]string{"-n", "15"}, "610", "1220"},
	"stress":   {[]string{"-height", "5", "-iters", "16"}, "32", "64"},
	"mm":       {[]string{"-n", "16"}, "16", "32"},
	"ssf":      {[]string{"-n", "8"}, "384", "768"},
	"cholesky": {[]string{"-n", "60", "-nz", "200"}, "14", "28"},
}

// TestRun drives the command through its flags. Every mode that runs a
// workload — the serial reference, each registry row that can run it,
// and the simulator — prints the same result=, and a -reps below one
// counts as one repetition in every mode. Unknown names and a
// scheduler without the workload's port exit 2.
func TestRun(t *testing.T) {
	for _, name := range workloads.Names() {
		in, ok := runInputs[name]
		if !ok {
			t.Fatalf("no TestRun inputs for table workload %q", name)
		}
		modes := [][]string{{"-sched", "serial"}, {"-sim"}}
		for _, s := range sched.All() {
			if name != "cholesky" || s.Caps().TaskDefs {
				modes = append(modes, []string{"-sched", s.Name()})
			}
		}
		for _, reps := range []struct{ flag, want string }{{"2", in.twice}, {"0", in.one}} {
			for _, mode := range modes {
				args := append(append([]string{"-workload", name}, in.args...), "-reps", reps.flag)
				args = append(args, mode...)
				t.Run(strings.Join(args, " "), func(t *testing.T) {
					if out := woolrun(t, args...); !strings.HasPrefix(out, "result="+reps.want+" ") {
						t.Errorf("got %q, want result=%s", out, reps.want)
					}
				})
			}
		}
	}

	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-workload", "nosuch"}, `unknown workload "nosuch"`},
		{[]string{"-workload", "nosuch", "-sim"}, `unknown workload "nosuch"`},
		{[]string{"-workload", "nosuch", "-sched", "serial"}, `unknown workload "nosuch"`},
		{[]string{"-sched", "nosuch"}, `unknown scheduler "nosuch"`},
		{[]string{"-stealpolicy", "zigzag"}, `unknown steal policy "zigzag"`},
		{[]string{"-workload", "cholesky", "-n", "60", "-nz", "200", "-sched", "gonative"},
			"cholesky needs task definitions; gonative has no port"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("exit %d, stderr %q; want exit 2 and %q", code, stderr.String(), tc.stderr)
			}
		})
	}

	// A trace file that cannot be written fails the run: /dev/full
	// opens, and every write to it fails.
	if _, err := os.Stat("/dev/full"); err == nil {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", "fib", "-n", "10", "-workers", "1", "-trace", "/dev/full"}, &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), "trace: ") {
			t.Errorf("-trace /dev/full: exit %d, stderr %q; want exit 1 and the write error", code, stderr.String())
		}
	}
}

// TestStatsGolden pins what -stats prints at one worker, where a run's
// counters are deterministic: every registry row that keeps counters
// (with and without -private where the row has private tasks), and the
// simulator with and without -private, on a fib and a stress tree.
// The native elapsed= line is dropped.
func TestStatsGolden(t *testing.T) {
	inputs := [][]string{
		{"-workload", "fib", "-n", "18"},
		{"-workload", "stress", "-height", "6", "-iters", "16"},
	}
	var runs [][]string
	for _, s := range sched.All() {
		if !s.Caps().Stats {
			continue
		}
		for _, in := range inputs {
			args := append([]string{"-sched", s.Name()}, in...)
			runs = append(runs, append(args, "-workers", "1", "-stats"))
			if s.Caps().PrivateTasks {
				runs = append(runs, append(args, "-workers", "1", "-private", "-stats"))
			}
		}
	}
	for _, workers := range []string{"1", "4"} {
		for _, in := range inputs {
			args := append([]string{"-sim"}, in...)
			runs = append(runs, append(args, "-workers", workers, "-stats"))
			runs = append(runs, append(args, "-workers", workers, "-private", "-stats"))
		}
	}

	var got bytes.Buffer
	for _, args := range runs {
		fmt.Fprintf(&got, "$ woolrun %s\n", strings.Join(args, " "))
		for _, line := range strings.SplitAfter(woolrun(t, args...), "\n") {
			if !strings.Contains(line, "elapsed=") {
				got.WriteString(line)
			}
		}
	}

	path := filepath.Join("testdata", "stats.golden")
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
		t.Errorf("woolrun -stats output differs from %s:\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
	}
}

// TestListMatchesREADME checks the README's "Registered schedulers"
// table against -list: the same backends, in the same order, with the
// same capability tokens.
func TestListMatchesREADME(t *testing.T) {
	var out bytes.Buffer
	listSchedulers(&out)
	var list []string
	for _, line := range strings.Split(out.String(), "\n") {
		if line != "" && line[0] != ' ' {
			list = append(list, strings.Join(strings.Fields(line), " "))
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### Registered schedulers\n")
	if !ok {
		t.Fatal(`README has no "### Registered schedulers" section`)
	}
	var table []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "#") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		table = append(table, name+" "+strings.TrimSpace(cells[2]))
	}

	if !reflect.DeepEqual(table, list) {
		t.Errorf("README scheduler table (name and capabilities) disagrees with woolrun -list:\nREADME:\n  %s\n-list:\n  %s",
			strings.Join(table, "\n  "), strings.Join(list, "\n  "))
	}
}
