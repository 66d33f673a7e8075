package fibw

import (
	"testing"

	"gowool/internal/core"
)

// expansionConfigs are the pools the expansion is checked on: private
// tasks (the generated fast path), public tasks (its TaskDef fallback
// and JoinAcquire) and a steal-heavy pair of workers.
var expansionConfigs = []core.Options{
	{Workers: 1, PrivateTasks: true},
	{Workers: 1},
	{Workers: 2, PrivateTasks: true},
	{Workers: 2, PrivateTasks: true, InitialPublic: 1, PublishAmount: 1},
}

// TestExpansionMatchesBody holds fibExpanded, the copy woolgen expands
// and everything generated calls, to fibBody as written (spawning and
// joining through SpawnFib and JoinFib): the same fib(0..22) on one
// and two workers, and at one worker the same counts.
func TestExpansionMatchesBody(t *testing.T) {
	for _, opts := range expansionConfigs {
		written, expanded := core.NewPool(opts), core.NewPool(opts)
		for n := int64(0); n <= 22; n++ {
			written.ResetStats()
			expanded.ResetStats()
			got := written.Run(func(w *core.Worker) int64 { return fibBody(w, n) })
			gotExp := expanded.Run(func(w *core.Worker) int64 { return fibExpanded(w, n) })
			if want := Serial(n); got != want || gotExp != want {
				t.Errorf("%+v: fib(%d): body %d, expansion %d, want %d", opts, n, got, gotExp, want)
			}
			if opts.Workers != 1 {
				continue
			}
			if w, e := written.Stats(), expanded.Stats(); w != e {
				t.Errorf("%+v: fib(%d): counts differ\nbody      %+v\nexpansion %+v", opts, n, w, e)
			}
		}
		written.Close()
		expanded.Close()
	}
}
