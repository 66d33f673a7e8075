package sim

import (
	"testing"
	"testing/quick"

	"gowool/internal/costmodel"
)

// simFib builds the fib workload against the sim API: ~13 cycles of
// work per spawned task, matching the paper's measured fib task
// granularity (Table I: G_T(fib) ≈ 13 cycles).
func simFib() *TaskDef1 {
	var d *TaskDef1
	d = Define1("fib", func(w *W, n int64) int64 {
		if n < 2 {
			w.Work(4)
			return n
		}
		d.Spawn(w, n-2)
		x := d.Call(w, n-1)
		y := d.Join(w)
		w.Work(13)
		return x + y
	})
	return d
}

// simTree builds a balanced binary tree of the given leaf work — the
// sim analogue of the paper's stress benchmark kernel.
func simTree(leafWork uint64) *TaskDef1 {
	var d *TaskDef1
	d = Define1("tree", func(w *W, depth int64) int64 {
		if depth == 0 {
			w.Work(leafWork)
			return 1
		}
		d.Spawn(w, depth-1)
		x := d.Call(w, depth-1)
		y := d.Join(w)
		return x + y
	})
	return d
}

// call is the root that calls d on n.
func call(d *TaskDef1, n int64) Root {
	return func(w *W) int64 { return d.Call(w, n) }
}

func serialFib(n int64) int64 {
	if n < 2 {
		return n
	}
	return serialFib(n-1) + serialFib(n-2)
}

func TestFibValueAllKindsAndProcs(t *testing.T) {
	fib := simFib()
	kinds := []struct {
		kind  Kind
		costs costmodel.Profile
	}{
		{KindDirectStack, costmodel.Wool()},
		{KindDeque, costmodel.TBB()},
		{KindLock, costmodel.LockBase()},
		{KindCentral, costmodel.OpenMP()},
	}
	for _, k := range kinds {
		for _, procs := range []int{1, 2, 4, 8} {
			res := Run(Config{Procs: procs, Kind: k.kind, Costs: k.costs}, call(fib, 15))
			if want := serialFib(15); res.Value != want {
				t.Errorf("%v procs=%d: got %d want %d", k.kind, procs, res.Value, want)
			}
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	fib := simFib()
	cfg := Config{Procs: 8, Kind: KindDirectStack, Costs: costmodel.Wool(), Seed: 42}
	a := Run(cfg, call(fib, 16))
	b := Run(cfg, call(fib, 16))
	if a.Makespan != b.Makespan || a.Total.Steals != b.Total.Steals || a.Total.StealAttempts != b.Total.StealAttempts {
		t.Errorf("replay diverged: makespan %d vs %d, steals %d vs %d, attempts %d vs %d",
			a.Makespan, b.Makespan, a.Total.Steals, b.Total.Steals, a.Total.StealAttempts, b.Total.StealAttempts)
	}
}

func TestSeedChangesInterleaving(t *testing.T) {
	tree := simTree(512)
	r1 := Run(Config{Procs: 8, Kind: KindDirectStack, Costs: costmodel.Wool(), Seed: 1}, call(tree, 10))
	r2 := Run(Config{Procs: 8, Kind: KindDirectStack, Costs: costmodel.Wool(), Seed: 99}, call(tree, 10))
	if r1.Value != r2.Value {
		t.Fatalf("values differ: %d vs %d", r1.Value, r2.Value)
	}
	if r1.Total.StealAttempts == r2.Total.StealAttempts && r1.Makespan == r2.Makespan {
		t.Log("different seeds produced identical runs (possible but unlikely)")
	}
}

func TestSpeedupScalesForCoarseWork(t *testing.T) {
	tree := simTree(50000) // 50k-cycle leaves: plenty of parallel slack
	base := Run(Config{Procs: 1, Kind: KindDirectStack, Costs: costmodel.Wool()}, call(tree, 8))
	for _, procs := range []int{2, 4, 8} {
		res := Run(Config{Procs: procs, Kind: KindDirectStack, Costs: costmodel.Wool()}, call(tree, 8))
		speedup := float64(base.Makespan) / float64(res.Makespan)
		if speedup < 0.75*float64(procs) {
			t.Errorf("procs=%d: speedup %.2f, want >= %.2f", procs, speedup, 0.75*float64(procs))
		}
		if res.Total.Steals == 0 {
			t.Errorf("procs=%d: no steals", procs)
		}
	}
}

func TestWoolBeatsOthersOnFineGrain(t *testing.T) {
	// Very fine leaves (512 cycles, the paper's stress small config):
	// wool's low overheads must beat the baselines at 8 processors.
	tree := simTree(512)
	run := func(kind Kind, costs costmodel.Profile, private bool) uint64 {
		return Run(Config{Procs: 8, Kind: kind, Costs: costs, PrivateTasks: private}, call(tree, 12)).Makespan
	}
	wool := run(KindDirectStack, costmodel.Wool(), true)
	cilk := run(KindDeque, costmodel.CilkPP(), false)
	tbb := run(KindDeque, costmodel.TBB(), false)
	omp := run(KindCentral, costmodel.OpenMP(), false)
	if wool >= tbb {
		t.Errorf("wool (%d) should beat tbb (%d) on fine grain", wool, tbb)
	}
	if wool >= cilk {
		t.Errorf("wool (%d) should beat cilk (%d) on fine grain", wool, cilk)
	}
	if wool >= omp {
		t.Errorf("wool (%d) should beat omp (%d) on fine grain", wool, omp)
	}
}

func TestSingleProcOverheadLadder(t *testing.T) {
	// Table II shape: on one processor the makespan ordering must be
	// private < task-specific public < sync-on-task < lock base.
	fib := simFib()
	n := int64(18)
	private := Run(Config{Procs: 1, Kind: KindDirectStack, Costs: costmodel.Wool(), PrivateTasks: true}, call(fib, n)).Makespan
	public := Run(Config{Procs: 1, Kind: KindDirectStack, Costs: costmodel.Wool()}, call(fib, n)).Makespan
	syncOnTask := Run(Config{Procs: 1, Kind: KindDirectStack, Costs: costmodel.WoolSyncOnTask()}, call(fib, n)).Makespan
	lockBase := Run(Config{Procs: 1, Kind: KindLock, Costs: costmodel.LockBase()}, call(fib, n)).Makespan
	if !(private < public && public < syncOnTask && syncOnTask < lockBase) {
		t.Errorf("ladder out of order: private=%d public=%d syncOnTask=%d lockBase=%d",
			private, public, syncOnTask, lockBase)
	}
}

func TestPrivateTasksMostlyPrivateOnOneProc(t *testing.T) {
	fib := simFib()
	res := Run(Config{Procs: 1, Kind: KindDirectStack, Costs: costmodel.Wool(), PrivateTasks: true}, call(fib, 18))
	if res.Total.JoinsInlinedPrivate == 0 {
		t.Fatal("no private joins")
	}
	frac := float64(res.Total.JoinsInlinedPrivate) / float64(res.Total.Joins())
	if frac < 0.95 {
		t.Errorf("private fraction %.3f, want >= 0.95", frac)
	}
}

func TestTripWirePublishesUnderSteals(t *testing.T) {
	tree := simTree(2000)
	res := Run(Config{Procs: 4, Kind: KindDirectStack, Costs: costmodel.Wool(), PrivateTasks: true}, call(tree, 10))
	if res.Total.Steals == 0 {
		t.Fatal("no steals")
	}
	if res.Total.Publications == 0 {
		t.Error("steals happened but the trip wire never published")
	}
	if res.Value != 1024 {
		t.Errorf("value = %d, want 1024", res.Value)
	}
}

// simRegions serializes reps repetitions of a depth-deep tree — the
// structure of the paper's stress benchmark (a sequence of small
// parallel regions), which is what exposes the steal-path differences
// in Figure 4.
func simRegions(tree *TaskDef1, reps, depth int64) Root {
	return Reps(reps, func(w *W, _ int64) int64 { return tree.Call(w, depth) })
}

func TestLockStrategies(t *testing.T) {
	// Fig 4 conditions: many small serialized regions, fine leaves,
	// thieves polling hard.
	regions := simRegions(simTree(512), 100, 4)
	var makespans []uint64
	for _, strat := range []LockStrategy{LockBase, LockPeek, LockTryLock} {
		res := Run(Config{Procs: 8, Kind: KindLock, Costs: costmodel.LockBase(),
			LockStrategy: strat, IdleBackoffCap: 256}, regions)
		if res.Value != 100*16 {
			t.Errorf("%v: value = %d, want 1600", strat, res.Value)
		}
		makespans = append(makespans, res.Makespan)
	}
	// Figure 4 shape: base is the slowest of the lock ladder on fine
	// grain (it locks victims that have nothing to steal).
	if makespans[0] < makespans[1] || makespans[0] < makespans[2] {
		t.Errorf("base (%d) should be slowest; peek=%d trylock=%d", makespans[0], makespans[1], makespans[2])
	}
}

func TestNoLockBeatsLockLadder(t *testing.T) {
	regions := simRegions(simTree(512), 100, 4)
	nolock := Run(Config{Procs: 8, Kind: KindDirectStack, Costs: costmodel.Wool(), IdleBackoffCap: 256},
		regions).Makespan
	peek := Run(Config{Procs: 8, Kind: KindLock, Costs: costmodel.LockBase(), LockStrategy: LockPeek,
		IdleBackoffCap: 256}, regions).Makespan
	if nolock >= peek {
		t.Errorf("nolock (%d) should beat peek (%d) on fine grain", nolock, peek)
	}
}

func TestSpanTrackerBalancedTree(t *testing.T) {
	tree := simTree(1000)
	res := Run(Config{Procs: 1, Kind: KindDirectStack, Costs: costmodel.Wool(),
		TrackSpan: true}, call(tree, 4))
	if res.Value != 16 {
		t.Fatalf("value = %d", res.Value)
	}
	if res.Work != 16000 {
		t.Errorf("work = %d, want 16000 (16 leaves × 1000)", res.Work)
	}
	if res.Span0 != 1000 {
		t.Errorf("span0 = %d, want 1000 (one leaf on the critical path)", res.Span0)
	}
	// Realistic model with O=2000: the bottom level serializes
	// (savings 1000 < 2000 → span 2000 per subtree); every level above
	// parallelizes at the threshold (savings = span ≥ 2000), adding O
	// each: 2000 → 4000 → 6000 → 8000.
	if res.SpanO != 8000 {
		t.Errorf("spanO = %d, want 8000", res.SpanO)
	}
}

func TestSpanOverheadModelParallelizesCoarse(t *testing.T) {
	tree := simTree(100000)
	res := Run(Config{Procs: 1, Kind: KindDirectStack, Costs: costmodel.Wool(),
		TrackSpan: true}, call(tree, 4))
	// min(k,c) = 100k per join >> 2000: parallel, span ≈ leaf + 4×O.
	want := uint64(100000 + 4*2000)
	if res.SpanO != want {
		t.Errorf("spanO = %d, want %d", res.SpanO, want)
	}
	if res.Span0 != 100000 {
		t.Errorf("span0 = %d, want 100000", res.Span0)
	}
}

func TestQuickFibEquivalence(t *testing.T) {
	fib := simFib()
	err := quick.Check(func(nRaw, pRaw, kRaw uint8, seed uint64) bool {
		n := int64(nRaw % 13)
		procs := int(pRaw%8) + 1
		kind := []Kind{KindDirectStack, KindDeque, KindLock, KindCentral}[kRaw%4]
		costs := []costmodel.Profile{costmodel.Wool(), costmodel.TBB(), costmodel.LockBase(), costmodel.OpenMP()}[kRaw%4]
		res := Run(Config{Procs: procs, Kind: kind, Costs: costs, Seed: seed}, call(fib, n))
		return res.Value == serialFib(n)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestQuickSpanInvariants(t *testing.T) {
	err := quick.Check(func(dRaw uint8, leafRaw uint16) bool {
		depth := int64(dRaw%5) + 1
		leaf := uint64(leafRaw%5000) + 100
		tree := simTree(leaf)
		res := Run(Config{Procs: 1, Kind: KindDirectStack, Costs: costmodel.Wool(),
			TrackSpan: true}, call(tree, depth))
		return res.Span0 <= res.SpanO && res.SpanO <= res.Work && res.Span0 > 0
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestStatsConservation(t *testing.T) {
	fib := simFib()
	res := Run(Config{Procs: 4, Kind: KindDirectStack, Costs: costmodel.Wool()}, call(fib, 16))
	if res.Total.Spawns != res.Total.Joins() {
		t.Errorf("spawns (%d) != joins (%d)", res.Total.Spawns, res.Total.Joins())
	}
	if res.Total.JoinsStolen != res.Total.Steals {
		t.Errorf("stolen joins (%d) != steals (%d)", res.Total.JoinsStolen, res.Total.Steals)
	}
}

func TestMoreProcsMoreSteals(t *testing.T) {
	// Paper: "we invariably see the number of steals growing faster
	// than the number of processors."
	tree := simTree(2000)
	prev := int64(0)
	for _, procs := range []int{2, 4, 8} {
		res := Run(Config{Procs: procs, Kind: KindDirectStack, Costs: costmodel.Wool()}, call(tree, 12))
		if res.Total.Steals <= prev {
			t.Errorf("procs=%d: steals %d did not grow (prev %d)", procs, res.Total.Steals, prev)
		}
		prev = res.Total.Steals
	}
}
