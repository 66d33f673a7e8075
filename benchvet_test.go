package gowool_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBenchModuleVets type-checks bench/, the repository's benchmark
// (BENCHMARK.json). It is a module of its own, so `go test ./...` from
// the root never compiles it: without this test a change that removes
// or renames a symbol the benchmark imports (core.Define1,
// sched.Lookup("woolgen"), serve.Rec, ports.SpawnNoopN, …) would pass
// tier-1 and fail only at the next benchmark run. The module stays out
// of a go.work on purpose — its own tests are timing-sensitive and do
// not belong in tier-1; `make bench-test` runs them.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go vet")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}

// TestBenchLinksNoSimulator keeps the virtual-time simulator out of
// the benchmark's binary: bench/ measures the native schedulers, and a
// package it links only through an unused helper would let a simulator
// edit move the binary's code layout.
func TestBenchLinksNoSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(goTool, "list", "-deps", ".")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps . in bench/: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		switch dep {
		case "gowool/internal/sim", "gowool/internal/vtime", "gowool/internal/costmodel":
			t.Errorf("bench/ links %s", dep)
		}
	}
}
