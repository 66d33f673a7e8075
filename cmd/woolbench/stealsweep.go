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
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/stress"
)

// The steal-policy sweep (woolbench -stealsweep FILE) runs the full
// policy × amount × backend × workload grid natively, extracts the
// per-cell steal matrix through the trace exporter, and runs the same
// policy grid on the virtual-time simulator's sharded 64-processor
// topology — one file from which simulated and native policy rankings
// can be compared.

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
// workload under one victim policy and steal amount, with the steal
// topology extracted from the run's trace.
type nativeStealCell struct {
	Backend  string  `json:"backend"`
	Policy   string  `json:"policy"`
	Amount   string  `json:"amount"`
	Workload string  `json:"workload"`
	Workers  int     `json:"workers"`
	BestMs   float64 `json:"best_ms"`
	// Steals counts successful victim steals (leapfrog included),
	// Central the takes from a central queue (no victim).
	Steals   int64 `json:"steals"`
	Leapfrog int64 `json:"leapfrog"`
	Central  int64 `json:"central"`
	// MeanRingDist is the steal-weighted mean thief↔victim ring
	// distance; LocalFrac the fraction of steals within the Localized
	// neighborhood radius. Both read the same matrix the policy shaped.
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

// sweepSizes holds the per-scale workload parameters.
type sweepSizes struct {
	fibN                            int64
	stressHeight, stressIters, reps int64
	workers, timedReps              int
	simFibN, simHeight, simIters    int64
	simProcs, simShards             int
}

func sweepScale(full bool) sweepSizes {
	if full {
		return sweepSizes{
			fibN: 27, stressHeight: 8, stressIters: 256, reps: 10,
			workers: 8, timedReps: 2,
			simFibN: 24, simHeight: 11, simIters: 64,
			simProcs: 64, simShards: 8,
		}
	}
	return sweepSizes{
		fibN: 22, stressHeight: 7, stressIters: 64, reps: 4,
		workers: 4, timedReps: 1,
		simFibN: 18, simHeight: 9, simIters: 32,
		simProcs: 64, simShards: 8,
	}
}

// matrixStats reduces a steal matrix to the locality numbers: total
// victim steals, steal-weighted mean ring distance, and the fraction
// within the Localized neighborhood radius.
func matrixStats(m *trace.StealMatrix) (steals int64, meanDist, localFrac float64) {
	var distSum, local int64
	for thief := range m.Steals {
		for victim, c := range m.Steals[thief] {
			if c == 0 {
				continue
			}
			d := steal.RingDistance(thief, victim, m.Workers)
			steals += c
			distSum += c * int64(d)
			if d <= sweepNeighborhood {
				local += c
			}
		}
	}
	if steals > 0 {
		meanDist = float64(distSum) / float64(steals)
		localFrac = float64(local) / float64(steals)
	}
	return steals, meanDist, localFrac
}

// runNativeCell runs one backend × policy × amount × workload cell on
// a traced pool and reduces its trace to a cell record.
func runNativeCell(s *sched.Scheduler, pol, amt, workload string, sz sweepSizes) (nativeStealCell, error) {
	cell := nativeStealCell{
		Backend: s.Name(), Policy: pol, Amount: amt,
		Workload: workload, Workers: sz.workers,
	}
	var job sched.RecJob
	var want int64
	switch workload {
	case "fib":
		job = fibw.Job(sz.fibN, sz.reps)
		want = fibw.Serial(sz.fibN) * sz.reps
	case "stress":
		job = stress.Job(sz.stressHeight, sz.stressIters, sz.reps)
		want = stress.SerialReps(sz.stressHeight, sz.stressIters, sz.reps)
	default:
		return cell, fmt.Errorf("unknown sweep workload %q", workload)
	}
	tr := trace.New(sz.workers, 0)
	p := s.NewPool(sched.Options{
		Workers: sz.workers,
		Trace:   tr,
		Steal: steal.Config{
			Policy:       pol,
			Amount:       amt,
			Neighborhood: sweepNeighborhood,
		},
	})
	defer p.Close()
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < sz.timedReps; rep++ {
		t0 := time.Now()
		got := p.RunRec(job)
		d := time.Since(t0)
		if got != want {
			return cell, fmt.Errorf("%s/%s/%s %s = %d, want %d", s.Name(), pol, amt, workload, got, want)
		}
		if d < best {
			best = d
		}
	}
	cell.BestMs = float64(best) / float64(time.Millisecond)
	m := tr.StealMatrix()
	cell.Matrix = m.Steals
	cell.Steals, cell.MeanRingDist, cell.LocalFrac = matrixStats(m)
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
func runSimCell(kind sim.Kind, pol, workload string, sz sweepSizes) simStealCell {
	var def *sim.Def
	var args sim.Args
	switch workload {
	case "fib":
		def, args = fibw.NewSim(), sim.Args{A0: sz.simFibN}
	case "stress":
		def, args = stress.NewSimReps(), sim.Args{A0: sz.simHeight, A1: sz.simIters, A2: 1}
	}
	cfg := sim.Config{
		Procs: sz.simProcs, Kind: kind, Costs: costmodel.Wool(),
		Steal:    steal.Config{Policy: pol},
		Topology: sim.Topology{Shards: sz.simShards},
	}
	res := sim.Run(cfg, def, args)
	cell := simStealCell{
		Kind: kind.String(), Policy: pol, Workload: workload,
		Procs: sz.simProcs, Shards: sz.simShards,
		KCycles: float64(res.Makespan) / 1e3,
	}
	var hopSum, remote int64
	for thief := range res.StealsFrom {
		for victim, c := range res.StealsFrom[thief] {
			if c == 0 {
				continue
			}
			sa := thief * sz.simShards / sz.simProcs
			sb := victim * sz.simShards / sz.simProcs
			h := sa - sb
			if h < 0 {
				h = -h
			}
			cell.Steals += c
			hopSum += c * int64(h)
			if h > 0 {
				remote += c
			}
		}
	}
	if cell.Steals > 0 {
		cell.MeanHops = float64(hopSum) / float64(cell.Steals)
		cell.RemoteFrac = float64(remote) / float64(cell.Steals)
	}
	return cell
}

// simGrid runs every simKinds × steal.Policies() × {fib, stress} cell.
func simGrid(sz sweepSizes) []simStealCell {
	var cells []simStealCell
	for _, kind := range simKinds {
		for _, pol := range steal.Policies() {
			for _, workload := range []string{"fib", "stress"} {
				cells = append(cells, runSimCell(kind, pol, workload, sz))
			}
		}
	}
	return cells
}

// printRankings prints, per backend (native, fib cells at AmountOne)
// and per protocol (sim, fib cells), the policies ordered fastest
// first — the side-by-side the sweep exists to produce.
func printRankings(w io.Writer, rep *stealSweepReport) {
	fmt.Fprintln(w, "stealsweep: native policy ranking per backend (fib, amount=one, fastest first)")
	byBackend := map[string][]nativeStealCell{}
	for _, c := range rep.Native {
		if c.Workload == "fib" && c.Amount == steal.AmountOne {
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
			"native": fmt.Sprintf("policy × amount × workload per backend advertising StealPolicies; %d workers, best of %d wall-clock reps; matrix[thief][victim] from the trace exporter; localized neighborhood %d", sz.workers, sz.timedReps, sweepNeighborhood),
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
			for _, amt := range caps.StealAmounts {
				for _, workload := range []string{"fib", "stress"} {
					cell, err := runNativeCell(s, pol, amt, workload, sz)
					if err != nil {
						return err
					}
					rep.Native = append(rep.Native, cell)
					fmt.Fprintf(w, "  %-10s %-12s %-5s %-7s %8.1f ms  steals=%-6d dist=%.2f local=%.2f\n",
						cell.Backend, cell.Policy, cell.Amount, cell.Workload,
						cell.BestMs, cell.Steals, cell.MeanRingDist, cell.LocalFrac)
				}
			}
		}
	}

	fmt.Fprintf(w, "stealsweep: sim grid (P=%d, %d shards)\n", sz.simProcs, sz.simShards)
	rep.Sim = simGrid(sz)
	for _, cell := range rep.Sim {
		fmt.Fprintf(w, "  %-12s %-12s %-7s %10.0f kcycles  steals=%-6d hops=%.2f remote=%.2f\n",
			cell.Kind, cell.Policy, cell.Workload,
			cell.KCycles, cell.Steals, cell.MeanHops, cell.RemoteFrac)
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
