package analysis_test

import (
	"testing"

	"gowool/internal/analysis"
)

// TestRepoIsWoolvetClean is the meta-test behind `make lint`: the whole
// module must pass every woolvet analyzer. It keeps the annotations and
// the code from drifting apart even when CI runs only `go test`.
func TestRepoIsWoolvetClean(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	// "..." is the whole module; "./..." would be this directory's
	// packages only.
	pkgs, err := loader.LoadPatterns("...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the module walk looks broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, d := range analysis.RunAnalyzers(pkg, analysis.All()) {
			t.Errorf("%s: %s: %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}
