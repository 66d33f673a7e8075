package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"gowool/internal/costmodel"
	"gowool/internal/sched"
	"gowool/internal/sim"
	"gowool/internal/steal"
	"gowool/internal/trace"
	"gowool/internal/workloads"
)

// The steal-policy sweep (woolbench -stealsweep FILE) runs the full
// policy × backend × workload grid natively, extracts the per-cell
// steal matrix through the trace exporter, and runs the same policy
// grid on the virtual-time simulator's sharded 64-processor topology —
// one file from which simulated and native policy rankings can be
// compared.

// sweepNeighborhood is the Localized ring-neighborhood size used for
// the native cells. At the sweep's small worker counts the package
// default of 4 covers most of the ring, degenerating Localized into
// Random; 2 keeps the locality signal visible in the matrices.
const sweepNeighborhood = 2

// stealSweepReport is the machine-readable output of -stealsweep.
type stealSweepReport struct {
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Scale      string            `json:"scale"`
	Native     []nativeStealCell `json:"native"`
	Sim        []simStealCell    `json:"sim"`
	Notes      map[string]string `json:"notes"`
}

// nativeStealCell is one native grid point: a backend running a
// workload under one victim policy, with the steal topology extracted
// from the run's trace.
type nativeStealCell struct {
	Backend  string  `json:"backend"`
	Policy   string  `json:"policy"`
	Workload string  `json:"workload"`
	Workers  int     `json:"workers"`
	BestMs   float64 `json:"best_ms"`
	// Steals counts successful victim steals (leapfrog included),
	// Central the takes from a central queue (no victim).
	Steals   int64 `json:"steals"`
	Leapfrog int64 `json:"leapfrog"`
	Central  int64 `json:"central"`
	// MeanRingDist is the steal-weighted mean thief↔victim ring
	// distance; LocalFrac the fraction of steals whose victim is in the
	// thief's Localized neighborhood (steal.InNeighborhood). Both read
	// the same matrix the policy shaped.
	MeanRingDist float64 `json:"mean_ring_dist"`
	LocalFrac    float64 `json:"local_frac"`
	// Matrix is Steals[thief][victim] from the trace exporter.
	Matrix [][]int64 `json:"matrix"`
}

// simStealCell is one simulator grid point on the sharded topology.
type simStealCell struct {
	Kind     string  `json:"kind"`
	Policy   string  `json:"policy"`
	Workload string  `json:"workload"`
	Procs    int     `json:"procs"`
	Shards   int     `json:"shards"`
	KCycles  float64 `json:"kcycles"`
	Steals   int64   `json:"steals"`
	// MeanHops is the steal-weighted mean shard distance; RemoteFrac
	// the fraction of steals that crossed a shard boundary.
	MeanHops   float64 `json:"mean_hops"`
	RemoteFrac float64 `json:"remote_frac"`
}

// line is the cell's row of the printed native grid. A cell with no
// steals has no locality, so its distance and fraction print "-".
func (c *nativeStealCell) line() string {
	dist, local := "-", "-"
	if c.Steals > 0 {
		dist, local = fmt.Sprintf("%.2f", c.MeanRingDist), fmt.Sprintf("%.2f", c.LocalFrac)
	}
	return fmt.Sprintf("  %-10s %-12s %-7s %8.1f ms  steals=%-6d dist=%s local=%s",
		c.Backend, c.Policy, c.Workload, c.BestMs, c.Steals, dist, local)
}

// line is the cell's row of the printed sim grid, with "-" for the
// hops and remote fraction of a cell with no steals.
func (c *simStealCell) line() string {
	hops, remote := "-", "-"
	if c.Steals > 0 {
		hops, remote = fmt.Sprintf("%.2f", c.MeanHops), fmt.Sprintf("%.2f", c.RemoteFrac)
	}
	return fmt.Sprintf("  %-12s %-12s %-7s %10.0f kcycles  steals=%-6d hops=%s remote=%s",
		c.Kind, c.Policy, c.Workload, c.KCycles, c.Steals, hops, remote)
}

// sweepWorkload is one workload of the grid at its native and its
// simulated inputs.
type sweepWorkload struct {
	wl          *workloads.Workload
	native, sim workloads.Params
}

// sweepSizes holds the per-scale workload parameters.
type sweepSizes struct {
	workloads           []sweepWorkload
	workers, timedReps  int
	simProcs, simShards int
}

func sweepScale(full bool) sweepSizes {
	fib, stress := workloads.MustLookup("fib"), workloads.MustLookup("stress")
	if full {
		return sweepSizes{
			workloads: []sweepWorkload{
				{fib, workloads.Params{N: 27, Reps: 10}, workloads.Params{N: 24}},
				{stress, workloads.Params{Height: 8, Iters: 256, Reps: 10}, workloads.Params{Height: 11, Iters: 64}},
			},
			workers: 8, timedReps: 2,
			simProcs: 64, simShards: 8,
		}
	}
	return sweepSizes{
		workloads: []sweepWorkload{
			{fib, workloads.Params{N: 22, Reps: 4}, workloads.Params{N: 18}},
			{stress, workloads.Params{Height: 7, Iters: 64, Reps: 4}, workloads.Params{Height: 9, Iters: 32}},
		},
		workers: 4, timedReps: 1,
		simProcs: 64, simShards: 8,
	}
}

// matrixStats reduces a steals[thief][victim] matrix to the locality
// numbers under a distance: total steals, the steal-weighted mean
// distance, and the fraction of steals whose thief and victim in
// accepts.
func matrixStats(steals [][]int64, dist func(thief, victim int) int, in func(thief, victim int) bool) (total int64, mean, frac float64) {
	var distSum, within int64
	for thief := range steals {
		for victim, c := range steals[thief] {
			if c == 0 {
				continue
			}
			d := dist(thief, victim)
			total += c
			distSum += c * int64(d)
			if in(thief, victim) {
				within += c
			}
		}
	}
	if total > 0 {
		mean = float64(distSum) / float64(total)
		frac = float64(within) / float64(total)
	}
	return total, mean, frac
}

// ringLocality reduces a native cell's steal matrix: total steals, the
// mean thief↔victim ring distance, and the fraction of steals inside
// the localized policy's sweepNeighborhood.
func ringLocality(steals [][]int64) (total int64, meanDist, localFrac float64) {
	n := len(steals)
	return matrixStats(steals,
		func(thief, victim int) int { return steal.RingDistance(thief, victim, n) },
		func(thief, victim int) bool { return steal.InNeighborhood(thief, victim, sweepNeighborhood, n) })
}

// runNativeCell runs one backend × policy × workload cell on a traced
// pool and reduces its trace to a cell record.
func runNativeCell(s *sched.Scheduler, pol string, sw sweepWorkload, sz sweepSizes) (nativeStealCell, error) {
	cell := nativeStealCell{
		Backend: s.Name(), Policy: pol,
		Workload: sw.wl.Name(), Workers: sz.workers,
	}
	want := sw.wl.Serial(sw.native)
	tr := trace.New(sz.workers, 0)
	p := s.NewPool(sched.Options{
		Workers: sz.workers,
		Trace:   tr,
		Steal: steal.Config{
			Policy:       pol,
			Neighborhood: sweepNeighborhood,
		},
	})
	defer p.Close()
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < sz.timedReps; rep++ {
		t0 := time.Now()
		got, err := sw.wl.Native(p, sw.native)
		d := time.Since(t0)
		if err != nil {
			return cell, err
		}
		if got != want {
			return cell, fmt.Errorf("%s/%s %s = %d, want %d", s.Name(), pol, cell.Workload, got, want)
		}
		if d < best {
			best = d
		}
	}
	cell.BestMs = float64(best) / float64(time.Millisecond)
	m := tr.StealMatrix()
	cell.Matrix = m.Steals
	cell.Steals, cell.MeanRingDist, cell.LocalFrac = ringLocality(m.Steals)
	for thief := range m.Leap {
		cell.Central += m.Central[thief]
		for _, c := range m.Leap[thief] {
			cell.Leapfrog += c
		}
	}
	return cell, nil
}

// simKinds is the simulator protocol grid: the kinds with per-worker
// pools (KindCentral has no victims, so policies cannot apply).
var simKinds = []sim.Kind{sim.KindDirectStack, sim.KindDeque, sim.KindLock}

// runSimCell runs one protocol × policy × workload cell at sz.simProcs
// on the sharded topology and reduces Result.StealsFrom to hop stats.
func runSimCell(kind sim.Kind, pol string, sw sweepWorkload, sz sweepSizes) simStealCell {
	cfg := sim.Config{
		Procs: sz.simProcs, Kind: kind, Costs: costmodel.Wool(),
		Steal:    steal.Config{Policy: pol},
		Topology: sim.Topology{Shards: sz.simShards},
	}
	res := sim.Run(cfg, sw.wl.Sim(sw.sim))
	cell := simStealCell{
		Kind: kind.String(), Policy: pol, Workload: sw.wl.Name(),
		Procs: sz.simProcs, Shards: sz.simShards,
		KCycles: float64(res.Makespan) / 1e3,
	}
	// MeanHops and RemoteFrac use the hop rule the simulator charges.
	hops := func(thief, victim int) int { return int(cfg.Topology.Hops(thief, victim, sz.simProcs)) }
	cell.Steals, cell.MeanHops, cell.RemoteFrac = matrixStats(res.StealsFrom, hops,
		func(thief, victim int) bool { return hops(thief, victim) > 0 })
	return cell
}

// simGrid runs every simKinds × steal.Policies() × sz.workloads cell.
func simGrid(sz sweepSizes) []simStealCell {
	var cells []simStealCell
	for _, kind := range simKinds {
		for _, pol := range steal.Policies() {
			for _, sw := range sz.workloads {
				cells = append(cells, runSimCell(kind, pol, sw, sz))
			}
		}
	}
	return cells
}

// printRankings prints, per backend (native, fib cells) and per
// protocol (sim, fib cells), the policies ordered fastest first — the
// side-by-side the sweep exists to produce.
func printRankings(w io.Writer, rep *stealSweepReport) {
	fmt.Fprintln(w, "stealsweep: native policy ranking per backend (fib, fastest first)")
	byBackend := map[string][]nativeStealCell{}
	for _, c := range rep.Native {
		if c.Workload == "fib" {
			byBackend[c.Backend] = append(byBackend[c.Backend], c)
		}
	}
	var backends []string
	for b := range byBackend {
		backends = append(backends, b)
	}
	sort.Strings(backends)
	for _, b := range backends {
		cells := byBackend[b]
		sort.Slice(cells, func(i, j int) bool { return cells[i].BestMs < cells[j].BestMs })
		fmt.Fprintf(w, "  %-10s", b)
		for _, c := range cells {
			fmt.Fprintf(w, " %s=%.1fms", c.Policy, c.BestMs)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "stealsweep: sim policy ranking per protocol (fib, P=64, 8 shards, fastest first)")
	byKind := map[string][]simStealCell{}
	for _, c := range rep.Sim {
		if c.Workload == "fib" {
			byKind[c.Kind] = append(byKind[c.Kind], c)
		}
	}
	var kinds []string
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		cells := byKind[k]
		sort.Slice(cells, func(i, j int) bool { return cells[i].KCycles < cells[j].KCycles })
		fmt.Fprintf(w, "  %-12s", k)
		for _, c := range cells {
			fmt.Fprintf(w, " %s=%.0fk", c.Policy, c.KCycles)
		}
		fmt.Fprintln(w)
	}
}

// runStealSweep writes the sweep report to path and its progress and
// rankings to w: the native policy grid over every backend that
// advertises StealPolicies, plus the simulator grid on the sharded
// topology.
func runStealSweep(w io.Writer, path string, full bool) error {
	sz := sweepScale(full)
	gmp := runtime.GOMAXPROCS(0)
	if gmp < sz.workers {
		runtime.GOMAXPROCS(sz.workers)
		defer runtime.GOMAXPROCS(gmp)
	}
	scale := "quick"
	if full {
		scale = "full"
	}
	rep := stealSweepReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      scale,
		Notes: map[string]string{
			"native": fmt.Sprintf("policy × workload per backend advertising StealPolicies; %d workers, best of %d wall-clock reps; matrix[thief][victim] from the trace exporter; localized neighborhood %d", sz.workers, sz.timedReps, sweepNeighborhood),
			"sim":    fmt.Sprintf("virtual-time sweep at P=%d on a %d-shard linear topology (remote probes +%d cycles/hop, remote steals +%d cycles/hop); kcycles is makespan/1e3", sz.simProcs, sz.simShards, costmodel.RemoteProbePenalty, costmodel.RemoteStealPenalty),
			"intent": "compare the native policy ranking (best_ms per backend) with the simulated ranking (kcycles per protocol)",
		},
	}

	fmt.Fprintf(w, "stealsweep: native grid (%s scale)\n", scale)
	for _, s := range sched.All() {
		caps := s.Caps()
		if len(caps.StealPolicies) == 0 || !caps.Trace {
			continue
		}
		for _, pol := range caps.StealPolicies {
			for _, sw := range sz.workloads {
				cell, err := runNativeCell(s, pol, sw, sz)
				if err != nil {
					return err
				}
				rep.Native = append(rep.Native, cell)
				fmt.Fprintln(w, cell.line())
			}
		}
	}

	fmt.Fprintf(w, "stealsweep: sim grid (P=%d, %d shards)\n", sz.simProcs, sz.simShards)
	rep.Sim = simGrid(sz)
	for _, cell := range rep.Sim {
		fmt.Fprintln(w, cell.line())
	}

	printRankings(w, &rep)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}
