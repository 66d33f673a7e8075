package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gowool/internal/experiments"
)

// update rewrites testdata/stealsweep_sim_quick.golden from this run.
// The golden pins the simulator's steal-policy grid byte for byte; a
// change that rewrites it says in CHANGES.md why the grid moved.
var update = flag.Bool("update", false, "rewrite testdata/*.golden")

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

// TestStealSweepSimGolden runs -stealsweep's simulator grid at quick
// scale and compares the cells, as they appear in the report's "sim"
// array, with the golden.
func TestStealSweepSimGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("64-processor simulator grid")
	}
	got, err := json.MarshalIndent(simGrid(sweepScale(false)), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "stealsweep_sim_quick.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("simulator grid differs from %s:\n%s", path, got)
	}
}

// TestRingLocalityCountsTheNeighborhood: at 4 workers the sweep's
// localized neighborhood of 2 holds a thief's two ring neighbours at
// distance 1, so a steal at distance 2 is not local, though it is
// within distance 2.
func TestRingLocalityCountsTheNeighborhood(t *testing.T) {
	steals := [][]int64{
		{0, 3, 2, 1}, // worker 0: 3 from 1, 1 from 3 local; 2 from 2 not
		{0, 0, 0, 0},
		{0, 0, 0, 0},
		{0, 0, 0, 0},
	}
	total, meanDist, localFrac := ringLocality(steals)
	if total != 6 {
		t.Errorf("total = %d, want 6", total)
	}
	if want := 8.0 / 6; meanDist != want {
		t.Errorf("mean ring distance = %v, want %v", meanDist, want)
	}
	if want := 4.0 / 6; localFrac != want {
		t.Errorf("local fraction = %v, want %v: a distance-2 steal counted as local", localFrac, want)
	}
}

// TestSweepLinesDashWithoutSteals: a grid cell with no steals has no
// locality, so its printed line shows "-" where a cell with steals
// shows its distance and fraction; a 0.00 there would read as a cell
// whose every steal was remote.
func TestSweepLinesDashWithoutSteals(t *testing.T) {
	cases := []struct{ got, want string }{
		{(&nativeStealCell{Backend: "wool", Policy: "random", Workload: "fib", BestMs: 1.5}).line(),
			"  wool       random       fib          1.5 ms  steals=0      dist=- local=-"},
		{(&nativeStealCell{Backend: "wool", Policy: "random", Workload: "fib", BestMs: 1.5,
			Steals: 4, MeanRingDist: 1.25, LocalFrac: 0.5}).line(),
			"  wool       random       fib          1.5 ms  steals=4      dist=1.25 local=0.50"},
		{(&simStealCell{Kind: "direct-stack", Policy: "localized", Workload: "stress", KCycles: 27}).line(),
			"  direct-stack localized    stress          27 kcycles  steals=0      hops=- remote=-"},
		{(&simStealCell{Kind: "direct-stack", Policy: "localized", Workload: "stress", KCycles: 27,
			Steals: 10, MeanHops: 0.3, RemoteFrac: 0.2}).line(),
			"  direct-stack localized    stress          27 kcycles  steals=10     hops=0.30 remote=0.20"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("line = %q\nwant    %q", c.got, c.want)
		}
	}
}
