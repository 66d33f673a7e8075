package analysis_test

import (
	"testing"

	"gowool/internal/analysis"
	"gowool/internal/analysis/analysistest"
)

// Each analyzer has a fixture package under testdata/src that both
// proves the pass fires (want comments on the violating lines) and
// that it stays quiet on the adjacent correct idioms.

func TestAtomicField(t *testing.T) {
	analysistest.Run(t, "atomicfield", analysis.AtomicField)
}

func TestOwnerPrivate(t *testing.T) {
	analysistest.Run(t, "ownerprivate", analysis.OwnerPrivate)
}

func TestLayoutGuard(t *testing.T) {
	analysistest.Run(t, "layoutguard", analysis.LayoutGuard)
}

func TestSpawnJoin(t *testing.T) {
	analysistest.Run(t, "spawnjoin", analysis.SpawnJoin)
}

func TestPublication(t *testing.T) {
	analysistest.Run(t, "publication", analysis.Publication)
}

// TestPerfBudget is the acceptance proof that the compiler-budget lint
// demonstrably fails when an annotated function de-inlines (pinned,
// tooBig) or lets a value escape (escapes, boxed): those fixtures
// carry want comments quoting the compiler's own reasons.
func TestPerfBudget(t *testing.T) {
	analysistest.Run(t, "perfbudget", analysis.PerfBudget)
}

func TestByName(t *testing.T) {
	as, err := analysis.ByName([]string{"atomicfield", "spawnjoin"})
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "atomicfield" || as[1].Name != "spawnjoin" {
		t.Fatalf("ByName returned %v", as)
	}
	if _, err := analysis.ByName([]string{"nosuch"}); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}
