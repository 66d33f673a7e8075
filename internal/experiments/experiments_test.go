package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gowool/internal/workloads"
)

// update rewrites the quick catalog's goldens from this run's output:
// go test ./internal/experiments -run TestQuickExperimentsRun -update.
// The goldens are the simulator's reproduction pinned byte for byte, so
// a change that rewrites them says in CHANGES.md which experiments moved
// and why; a change that claims to keep the simulator's behaviour must
// pass without -update.
var update = flag.Bool("update", false, "rewrite testdata/quick/*.golden")

// simulated lists the experiments whose output is a pure function of
// the simulator: their quick-scale output is compared with a golden.
// table2, table3 and xgonative print native timings and are left out.
var simulated = map[string]bool{
	"fig1": true, "fig4": true, "fig5": true, "fig6": true,
	"table1": true, "table4": true,
	"xablate": true, "xcilk": true, "xscale": true,
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig4", "fig5", "fig6", "table1", "table2", "table3", "table4", "xablate", "xcilk", "xgonative", "xscale"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("experiment %d = %q, want %q", i, all[i].ID, id)
		}
		if all[i].Paper == "" || all[i].Title == "" || all[i].Run == nil {
			t.Errorf("experiment %q incomplete", id)
		}
	}
	if _, ok := ByID("fig1"); !ok {
		t.Error("ByID(fig1) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
}

func TestCatalogBuilds(t *testing.T) {
	for _, sc := range []Scale{Quick, Full} {
		for _, wl := range Catalog(sc) {
			if wl.Name() == "" || wl.Reps <= 0 {
				t.Errorf("bad workload %+v", wl)
			}
			if wl.Root() == nil {
				t.Errorf("%s: nil root", wl.Name())
			}
		}
	}
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("quick"); err != nil || s != Quick {
		t.Error("quick parse failed")
	}
	if s, err := ParseScale("full"); err != nil || s != Full {
		t.Error("full parse failed")
	}
	if _, err := ParseScale("medium"); err == nil {
		t.Error("bad scale accepted")
	}
}

// TestQuickExperimentsRun executes every experiment at Quick scale and
// sanity-checks the output, and compares each simulated experiment's
// output with its golden. This is the integration test of the whole
// reproduction pipeline (workloads → sim → analysis → rendering).
func TestQuickExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take seconds each")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(Quick, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if len(out) < 100 {
				t.Fatalf("%s: suspiciously short output:\n%s", e.ID, out)
			}
			if !strings.Contains(out, "==") {
				t.Errorf("%s: no table header in output", e.ID)
			}
			if simulated[e.ID] {
				checkGolden(t, filepath.Join("testdata", "quick", e.ID+".golden"), buf.Bytes())
			}
		})
	}
}

func TestSerialWorkStable(t *testing.T) {
	wl := workload("mm", workloads.Params{N: 32, Reps: 4})
	a := serialWork(wl.Root())
	b := serialWork(wl.Root())
	if a.Work != b.Work || a.Span0 != b.Span0 {
		t.Errorf("serialWork not deterministic: %d/%d vs %d/%d", a.Work, a.Span0, b.Work, b.Span0)
	}
	if a.Work == 0 || a.Span0 == 0 {
		t.Error("zero work/span")
	}
}

func TestStealOverheadGrowsWithProcs(t *testing.T) {
	wool := Systems()[0]
	s2 := stealOverhead(wool, 1)
	s8 := stealOverhead(wool, 3)
	if s2 <= 0 {
		t.Fatalf("steal overhead @2 = %f, want > 0", s2)
	}
	if s8 <= s2 {
		t.Errorf("steal overhead @8 (%f) should exceed @2 (%f)", s8, s2)
	}
}

// checkGolden compares got with the golden file at path, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, gl, wl)
			return
		}
	}
}
