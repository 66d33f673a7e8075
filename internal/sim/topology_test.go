package sim

import (
	"testing"

	"gowool/internal/costmodel"
	"gowool/internal/steal"
)

// TestStealPolicyAllKindsCorrect: every victim policy computes the
// right answer under every protocol kind, deterministically.
func TestStealPolicyAllKindsCorrect(t *testing.T) {
	fib := simFib()
	want := serialFib(15)
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
		for _, pol := range steal.Policies() {
			cfg := Config{
				Procs: 8, Kind: k.kind, Costs: k.costs,
				Steal: steal.Config{Policy: pol, Neighborhood: 2},
			}
			a := Run(cfg, call(fib, 15))
			if a.Value != want {
				t.Errorf("%v/%s: got %d want %d", k.kind, pol, a.Value, want)
			}
			b := Run(cfg, call(fib, 15))
			if a.Makespan != b.Makespan || a.Total.Steals != b.Total.Steals {
				t.Errorf("%v/%s: replay diverged", k.kind, pol)
			}
		}
	}
}

// TestDefaultStealConfigBitIdentical: the policy refactor must not
// move a single cycle on default configs — the zero-value Steal config
// reproduces the pre-policy RNG streams exactly, so a run with an
// explicitly spelled-out random policy equals the legacy default.
func TestDefaultStealConfigBitIdentical(t *testing.T) {
	tree := simTree(512)
	base := Config{Procs: 8, Kind: KindDirectStack, Costs: costmodel.Wool(), Seed: 7}
	expl := base
	expl.Steal = steal.Config{Policy: steal.Random}
	a := Run(base, call(tree, 10))
	b := Run(expl, call(tree, 10))
	if a.Makespan != b.Makespan || a.Total.StealAttempts != b.Total.StealAttempts {
		t.Fatalf("explicit random diverged from default: makespan %d vs %d, attempts %d vs %d",
			a.Makespan, b.Makespan, a.Total.StealAttempts, b.Total.StealAttempts)
	}
}

// TestStealMatrixAccountsAllSteals: the per-thief victim rows sum to
// the machine's steal counter (non-central kinds: every steal claims
// from a victim).
func TestStealMatrixAccountsAllSteals(t *testing.T) {
	tree := simTree(512)
	res := Run(Config{Procs: 8, Kind: KindDirectStack, Costs: costmodel.Wool()}, call(tree, 10))
	var sum int64
	for i, row := range res.StealsFrom {
		for v, n := range row {
			if v == i && n != 0 {
				t.Errorf("worker %d recorded %d steals from itself", i, n)
			}
			sum += n
		}
	}
	if sum != res.Total.Steals {
		t.Fatalf("matrix sums to %d, Steals counter %d", sum, res.Total.Steals)
	}
	if sum == 0 {
		t.Fatal("no steals at 8 procs on a fine-grain tree")
	}
}

// meanHops is the steal-count-weighted mean shard distance of a run.
func meanHops(res Result, topo Topology, procs int) float64 {
	var total, weighted int64
	for i, row := range res.StealsFrom {
		for v, n := range row {
			total += n
			weighted += n * int64(topo.Hops(i, v, procs))
		}
	}
	if total == 0 {
		return 0
	}
	return float64(weighted) / float64(total)
}

// TestTopologyPenaltiesSlowStealHeavyRuns: a sharded machine with
// per-hop penalties can only add cycles, and on a steal-heavy
// fine-grain workload it must add some.
func TestTopologyPenaltiesSlowStealHeavyRuns(t *testing.T) {
	tree := simTree(512)
	const procs = 16
	flat := Run(Config{Procs: procs, Kind: KindDirectStack, Costs: costmodel.Wool()},
		call(tree, 11))
	sharded := Run(Config{
		Procs: procs, Kind: KindDirectStack, Costs: costmodel.Wool(),
		Topology: Topology{Shards: 4},
	}, call(tree, 11))
	if sharded.Makespan <= flat.Makespan {
		t.Errorf("sharded makespan %d not above flat %d", sharded.Makespan, flat.Makespan)
	}
}

// TestLocalizedStaysLocalOnShardedMachine: under the sharded topology
// the localized policy's steal matrix concentrates near the diagonal —
// its mean shard distance is well below uniform-random's.
func TestLocalizedStaysLocalOnShardedMachine(t *testing.T) {
	tree := simTree(512)
	const procs = 32
	topo := Topology{Shards: 8}
	run := func(pol string) Result {
		return Run(Config{
			Procs: procs, Kind: KindDirectStack, Costs: costmodel.Wool(),
			Steal:    steal.Config{Policy: pol},
			Topology: topo,
		}, call(tree, 12))
	}
	random, localized := run(steal.Random), run(steal.Localized)
	hr, hl := meanHops(random, topo, procs), meanHops(localized, topo, procs)
	if hl >= hr/2 {
		t.Errorf("localized mean hops %.3f not well below random's %.3f", hl, hr)
	}
}

// TestTopologyHops pins the shard map and distance arithmetic.
func TestTopologyHops(t *testing.T) {
	topo := Topology{Shards: 4}
	cases := []struct {
		a, b int
		want uint64
	}{
		{0, 3, 0},  // same shard (workers 0-3 in shard 0)
		{0, 4, 1},  // adjacent shards
		{0, 15, 3}, // far corners of a 16-worker machine
		{15, 0, 3}, // symmetric
		{8, 11, 0}, // interior shard
		{7, 8, 1},  // shard boundary
	}
	for _, c := range cases {
		if got := topo.Hops(c.a, c.b, 16); got != c.want {
			t.Errorf("hops(%d,%d,16) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if flat := (Topology{}); flat.Hops(0, 15, 16) != 0 {
		t.Error("flat machine has nonzero hops")
	}
}
