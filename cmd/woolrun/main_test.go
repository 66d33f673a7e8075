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
)

// update rewrites testdata/stats.golden from this run:
// go test ./cmd/woolrun -run TestStatsGolden -update. A change that
// runs it says in CHANGES.md which lines moved and why.
var update = flag.Bool("update", false, "rewrite testdata/stats.golden")

// woolrun runs the command with args, every other flag at its default,
// and returns what it wrote to stdout.
func woolrun(t *testing.T, args ...string) string {
	t.Helper()
	flags.VisitAll(func(f *flag.Flag) { f.Value.Set(f.DefValue) })
	if err := flags.Parse(args); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	run(&out)
	return out.String()
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
