package ports

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

// mix is a seeded hash of a tree node, for irregular shapes and leaf
// values.
func mix(seed, n int64) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(n)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	return int64(x >> 33)
}

// stressCtx is a stress-shaped recursion: a binary tree of height 10
// whose node n splits into 2n and 2n+1, pruned below its third level
// where the seed's hash says so, with a short spin and a seeded value
// at each leaf.
func stressCtx(seed int64) *RecCtx {
	return &RecCtx{
		Leaf: func(n int64) (int64, bool) {
			if n < 8 || n < 1<<10 && mix(seed, n)%5 != 0 {
				return 0, false
			}
			v := mix(seed, n) & 0xff
			for i := int64(0); i < 16; i++ {
				v = v*31 + i
			}
			return v & 0xffff, true
		},
		Split: func(n int64) (int64, int64) { return 2 * n, 2*n + 1 },
	}
}

// compare runs the hand-written and the expanded body of one job on
// pools built from each expansion config: the same result everywhere,
// and at one worker the same counts, of at least 100 spawns.
func compare(t *testing.T, name string, want int64, written, expanded func(*core.Worker) int64) {
	t.Helper()
	for _, opts := range expansionConfigs {
		pw, pe := core.NewPool(opts), core.NewPool(opts)
		got, gotExp := pw.Run(written), pe.Run(expanded)
		if got != want || gotExp != want {
			t.Errorf("%s %+v: body %d, expansion %d, want %d", name, opts, got, gotExp, want)
		}
		if opts.Workers == 1 {
			w, e := pw.Stats(), pe.Stats()
			if w != e {
				t.Errorf("%s %+v: counts differ\nbody      %+v\nexpansion %+v", name, opts, w, e)
			}
			if w.Spawns < 100 {
				t.Errorf("%s %+v: %d spawns, too few to compare the two", name, opts, w.Spawns)
			}
		}
		pw.Close()
		pe.Close()
	}
}

// TestExpansionMatchesBody holds recExpanded and rangeExpanded, the
// copies woolgen expands and everything generated calls (a served
// request included), to recBody and rangeBody as written.
func TestExpansionMatchesBody(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c := stressCtx(seed)
		compare(t, "rec", serialRec(c, 1), func(w *core.Worker) int64 { return recBody(w, c, 1) },
			func(w *core.Worker) int64 { return recExpanded(w, c, 1) })

		n := 1000 + 37*seed
		rc := &RangeCtx{Leaf: func(i int64) int64 { return mix(seed, i) & 0xff }}
		var want int64
		for i := int64(0); i < n; i++ {
			want += rc.Leaf(i)
		}
		compare(t, "range", want, func(w *core.Worker) int64 { return rangeBody(w, rc, 0, n) },
			func(w *core.Worker) int64 { return rangeExpanded(w, rc, 0, n) })
	}
}
