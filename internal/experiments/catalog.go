package experiments

import (
	"fmt"

	"gowool/internal/sim"
	"gowool/internal/workloads"
)

// Workload is one row of the paper's workload catalog (Table I): a
// table workload at specific inputs, repeated Reps times with
// serialization between repetitions. Root builds a fresh simulated
// root task (fresh state per call so runs never share mutable data).
type Workload struct {
	Family string // "cholesky", "mm", "ssf", "stress256", "stress4096"
	Params string // the paper's parameter column
	Reps   int64  // scaled-down repetition count
	Root   func() sim.Root
}

// Name returns "family(params)".
func (wl Workload) Name() string { return fmt.Sprintf("%s(%s)", wl.Family, wl.Params) }

// workload is the catalog row of the named table workload at p.
func workload(name string, p workloads.Params) Workload {
	w := workloads.MustLookup(name)
	p = p.Norm()
	family, params := w.TableI(p)
	return Workload{
		Family: family, Params: params, Reps: p.Reps,
		Root: func() sim.Root { return w.Sim(p) },
	}
}

// Catalog returns the Table I workload ladder at the given scale. The
// paper's inputs are scaled down (fewer repetitions, and for cholesky
// a cap on matrix size) so a full sweep stays in simulator range; the
// scaling is recorded in EXPERIMENTS.md and the Params/Reps columns.
func Catalog(sc Scale) []Workload {
	if sc == Quick {
		return []Workload{
			workload("cholesky", workloads.Params{N: 250, NZ: 1000, Reps: 2}),
			workload("cholesky", workloads.Params{N: 500, NZ: 2000, Reps: 1}),
			workload("mm", workloads.Params{N: 64, Reps: 64}),
			workload("mm", workloads.Params{N: 128, Reps: 8}),
			workload("mm", workloads.Params{N: 256, Reps: 2}),
			workload("ssf", workloads.Params{N: 12, Reps: 32}),
			workload("ssf", workloads.Params{N: 13, Reps: 16}),
			workload("ssf", workloads.Params{N: 14, Reps: 8}),
			workload("stress", workloads.Params{Height: 7, Iters: 256, Reps: 256}),
			workload("stress", workloads.Params{Height: 8, Iters: 256, Reps: 128}),
			workload("stress", workloads.Params{Height: 9, Iters: 256, Reps: 64}),
			workload("stress", workloads.Params{Height: 3, Iters: 4096, Reps: 256}),
			workload("stress", workloads.Params{Height: 4, Iters: 4096, Reps: 128}),
			workload("stress", workloads.Params{Height: 5, Iters: 4096, Reps: 64}),
		}
	}
	return []Workload{
		// cholesky: paper runs 250..4k rows; simulating beyond 1k rows
		// exceeds the task budget, so the two largest rows are omitted.
		workload("cholesky", workloads.Params{N: 250, NZ: 1000, Reps: 8}),
		workload("cholesky", workloads.Params{N: 500, NZ: 2000, Reps: 4}),
		workload("cholesky", workloads.Params{N: 1000, NZ: 4000, Reps: 1}),
		// mm: paper reps 16K/2K/256/32, scaled by 16.
		workload("mm", workloads.Params{N: 64, Reps: 1024}),
		workload("mm", workloads.Params{N: 128, Reps: 128}),
		workload("mm", workloads.Params{N: 256, Reps: 16}),
		workload("mm", workloads.Params{N: 512, Reps: 2}),
		// ssf: paper reps 16K..1K, scaled by 64.
		workload("ssf", workloads.Params{N: 12, Reps: 256}),
		workload("ssf", workloads.Params{N: 13, Reps: 128}),
		workload("ssf", workloads.Params{N: 14, Reps: 64}),
		workload("ssf", workloads.Params{N: 15, Reps: 32}),
		workload("ssf", workloads.Params{N: 16, Reps: 16}),
		// stress leaf 256: paper reps 128K..8K, scaled by 64.
		workload("stress", workloads.Params{Height: 7, Iters: 256, Reps: 2048}),
		workload("stress", workloads.Params{Height: 8, Iters: 256, Reps: 1024}),
		workload("stress", workloads.Params{Height: 9, Iters: 256, Reps: 512}),
		workload("stress", workloads.Params{Height: 10, Iters: 256, Reps: 256}),
		workload("stress", workloads.Params{Height: 11, Iters: 256, Reps: 128}),
		// stress leaf 4096: same scaling.
		workload("stress", workloads.Params{Height: 3, Iters: 4096, Reps: 2048}),
		workload("stress", workloads.Params{Height: 4, Iters: 4096, Reps: 1024}),
		workload("stress", workloads.Params{Height: 5, Iters: 4096, Reps: 512}),
		workload("stress", workloads.Params{Height: 6, Iters: 4096, Reps: 256}),
		workload("stress", workloads.Params{Height: 7, Iters: 4096, Reps: 128}),
	}
}
