// Command bench is gowool's benchmark: five workloads, from the
// spawn/join pair to a served request, measured from outside through
// the exported functions of each layer. README.md has the catalogue.
//
// One run of one workload is
//
//	bash bench/run.sh --workload fib-tree --seed 1 --seconds 15 --trace 0
//
// and prints, as the last line of standard output, one JSON object with
// the run's metrics: the end-to-end ones with --trace 0, the per-layer
// ones with --trace 1. Without --workload the program runs every
// workload in a child process each and prints a table (see sets.go for
// -reps, -check and -quick).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

const (
	// The load is sized for two cores; the harness fixes GOMAXPROCS so
	// that a larger host runs the same experiment.
	benchProcs = 2
	// setupReps set-ups are timed in an untraced run, and their median
	// reported: one alone is mostly the process warming up.
	setupReps = 5
	// spanCapacity is the span log's size per traced phase; spans past it
	// are counted and dropped, the histograms still see every request.
	spanCapacity = 200_000
	// gcPercent replaces the runtime's default of 100. The benchmark's
	// live heap is a few MB, so at 100 a collection starts every few MB
	// allocated, hundreds of times a second on the serve workloads, and
	// where those cycles fall decided the run: serve-open's saturated
	// throughput spread 20 % over identical runs at 100 and 3 % at 400.
	// A program that embeds the scheduler has a live heap tens of MB
	// large and collects about this rarely.
	gcPercent = 400
)

// headline is what every workload reports for the end-to-end metrics.
type headline struct {
	LatP50Us      float64
	OpsPerS       float64
	OverheadRatio float64
	CPUUsPerOp    float64
}

// measurement is one timed phase of a workload.
type measurement struct {
	attempted, failed int64
	violations        []string // broken invariants, for the log
	head              headline
	layer             values
	spans             []*spanBuf
}

// check counts one operation and whether its result was the expected
// one.
func (m *measurement) check(ok bool) {
	m.attempted++
	if !ok {
		m.failed++
	}
}

// require counts a broken invariant of the system under test (a
// Server.Stats identity, say) as a failure.
func (m *measurement) require(ok bool, format string, args ...any) {
	if !ok {
		m.failed++
		m.violations = append(m.violations, fmt.Sprintf(format, args...))
	}
}

func (m *measurement) add(o *measurement) {
	m.attempted += o.attempted
	m.failed += o.failed
	m.violations = append(m.violations, o.violations...)
}

// workload is a workload set up and warm. measure runs it for d; a
// traced measure also records spans and is given the probes' values to
// set its spans against.
type workload interface {
	measure(d time.Duration, traced bool, probes values) *measurement
	close()
}

func setup(name string, seed uint64, d time.Duration) (workload, error) {
	switch name {
	case "fib-tree":
		return setupBatch(fibTree, seed), nil
	case "stress-regions":
		return setupBatch(stressRegions(), seed), nil
	case "serve-tiny-closed":
		return setupTinyClosed()
	case "serve-open":
		return setupOpen(seed, d)
	case "serve-cancel-mix":
		return setupCancelMix(seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// outcome is the driver's view of a run: the last line of standard
// output.
type outcome struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newOutcome(defs []metricDef, v values, ms ...*measurement) outcome {
	out := outcome{Metrics: make(map[string]reading, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = reading{v[d.Name], d.Unit}
	}
	for _, m := range ms {
		out.Attempted += m.attempted
		out.Failed += m.failed
		for _, msg := range m.violations {
			fmt.Fprintln(os.Stderr, "bench: violation:", msg)
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	return out
}

// runUntraced is a --trace 0 run: set up setupReps times, measure for d
// with tracing off, report the end-to-end metrics.
func runUntraced(name string, seed uint64, d time.Duration) (outcome, error) {
	var w workload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		t0 := now()
		var err error
		if w, err = setup(name, seed, d); err != nil {
			return outcome{}, err
		}
		setups = append(setups, float64(now()-t0)/1e9)
	}
	if err := placeOthers(cpuB); err != nil {
		return outcome{}, err
	}
	m := w.measure(d, false, nil)
	w.close()
	peak, err := peakRSSMB()
	if err != nil {
		return outcome{}, err
	}
	v, err := values{
		"setup_s":        median(setups),
		"lat_p50_us":     m.head.LatP50Us,
		"ops_per_s":      m.head.OpsPerS,
		"overhead_ratio": m.head.OverheadRatio,
		"cpu_us_per_op":  m.head.CPUUsPerOp,
		"mem_peak_mb":    peak,
	}.fill(endToEnd, false)
	if err != nil {
		return outcome{}, err
	}
	return newOutcome(endToEnd, v, m), nil
}

// runTraced is a --trace 1 run. Half of d goes to the layer probes; the
// workload then runs a quarter of d untraced and a quarter traced, so
// that the cost of the spans themselves is a measured ratio and the
// tails come from a phase without them.
func runTraced(name string, seed uint64, d time.Duration, traceDir string) (outcome, error) {
	probes, err := runProbes(d / 2)
	if err != nil {
		return outcome{}, err
	}
	w, err := setup(name, seed, d/4)
	if err != nil {
		return outcome{}, err
	}
	if err := placeOthers(cpuB); err != nil {
		return outcome{}, err
	}
	plain := w.measure(d/4, false, nil)
	traced := w.measure(d/4, true, probes)
	w.close()

	layer := maps.Clone(probes)
	maps.Copy(layer, traced.layer)
	maps.Copy(layer, plain.layer)
	layer["bench.span_cost_ratio"] = traced.head.LatP50Us / plain.head.LatP50Us
	layer["bench.fail_share"] = float64(plain.failed+traced.failed) / float64(plain.attempted+traced.attempted)
	v, err := layer.fill(perLayer, true)
	if err != nil {
		return outcome{}, err
	}
	if err := writeTrace(filepath.Join(traceDir, name+".trace.json"), name, traced.spans); err != nil {
		return outcome{}, err
	}
	return newOutcome(perLayer, v, plain, traced), nil
}

// writeTrace writes the phase's span logs as one Chrome trace and logs
// each span name's self time.
func writeTrace(path, name string, bufs []*spanBuf) error {
	all := mergeSpans(bufs)
	self := selfTimes(all.spans)
	for _, n := range slices.Sorted(maps.Keys(self)) {
		st := self[n]
		fmt.Fprintf(os.Stderr, "bench: span %-16s n=%-7d mean %9.0f ns  self %9.0f ns\n",
			n, st.count, float64(st.total)/float64(st.count), float64(st.self)/float64(st.count))
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans (%d dropped) -> %s\n", len(all.spans), all.dropped, path)
	return writeChromeTrace(path, name, all)
}

// fingerprint says what machine and runtime a record came from.
type fingerprint struct {
	Go         string `json:"go"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
}

func machine() fingerprint {
	fp := fingerprint{Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		fp.Kernel = string(b)
	}
	return fp
}

// appendRecord appends rec to path as one JSON line, so that a file of
// them is a trajectory.
func appendRecord(path string, rec any) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runRecord is the -out line of a single run.
type runRecord struct {
	Time     string      `json:"time"`
	Machine  fingerprint `json:"machine"`
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Traced   bool        `json:"traced"`
	Result   outcome     `json:"result"`
}

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload and print its result line; empty runs them all")
		seed      = flag.Uint64("seed", 1, "seed of the generated inputs: arrival schedule, request mix, round order")
		seconds   = flag.Float64("seconds", runSeconds, "how long one run measures")
		traceOn   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from probes and a traced pass")
		traceDir  = flag.String("tracedir", "bench/out", "where a traced run writes <workload>.trace.json")
		outPath   = flag.String("out", "", "append one JSON line describing this invocation to this file")
		printSpec = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		reps      = flag.Int("reps", 3, "all-workloads mode: untraced runs per workload in a set, each with its own seed")
		check     = flag.Bool("check", false, "all-workloads mode: run two sets and fail if any end-to-end metric disagrees by more than its bound")
		quick     = flag.Bool("quick", false, "all-workloads mode: 0.6 s runs, one per workload, under 15 s in all; the numbers are not comparable with full runs")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *printSpec {
		os.Stdout.Write(specJSON())
		return
	}
	runtime.GOMAXPROCS(benchProcs)
	debug.SetGCPercent(gcPercent)

	if *name == "" {
		if err := runSets(setOptions{seed: *seed, seconds: *seconds, reps: *reps, check: *check, quick: *quick, traceDir: *traceDir, out: *outPath}); err != nil {
			fatal(err)
		}
		return
	}

	d := time.Duration(*seconds * float64(time.Second))
	if err := initAffinity(); err != nil {
		fatal(err)
	}
	var res outcome
	var err error
	if *traceOn != 0 {
		res, err = runTraced(*name, *seed, d, *traceDir)
	} else {
		res, err = runUntraced(*name, *seed, d)
	}
	if err != nil {
		fatal(err)
	}
	printOutcome(os.Stderr, *name, res)
	if *outPath != "" {
		rec := runRecord{time.Now().UTC().Format(time.RFC3339), machine(), *name, *seed, *seconds, *traceOn != 0, res}
		if err := appendRecord(*outPath, rec); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fatal(fmt.Errorf("%s: %d of %d operations failed", *name, res.Failed, res.Attempted))
	}
}

func printOutcome(w *os.File, name string, res outcome) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d\n", name, res.Attempted, res.Failed)
	for _, n := range slices.Sorted(maps.Keys(res.Metrics)) {
		r := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", n, r.Value, r.Unit)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
