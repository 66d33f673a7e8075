package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// All-workloads mode: every run is a child process of its own, so that
// one workload's heap, threads and peak memory do not leak into the
// next one's numbers. A set is reps untraced runs of each workload, each
// with another seed, and one traced run of each.

// quickSeconds is -quick's run length: short enough that ten runs and
// their set-ups and probes end within 15 s.
const quickSeconds = 0.6

type setOptions struct {
	seed     uint64
	seconds  float64
	reps     int
	check    bool
	quick    bool
	traceDir string
	out      string
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which
// is what the driver uses for the spread. One value is its own
// quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		pos := float64(i*(m+1)) / 4
		j := min(max(int(pos), 1), m-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return cut(1), cut(2), cut(3)
}

// row is one end-to-end metric of one workload over a set's runs.
type row struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound"`
	Seeds    []uint64  `json:"seeds"`
	N        int       `json:"n"`
	Median   float64   `json:"median"`
	P25      float64   `json:"p25"`
	P75      float64   `json:"p75"`
	Values   []float64 `json:"values"`
	Samples  int64     `json:"samples"` // operations checked, all runs
}

// spread is the distance between the quartiles as a share of the
// median.
func (r row) spread() float64 { return (r.P75 - r.P25) / r.Median }

// worseThan returns by what share of first's median r's median is
// worse; negative when it is better.
func (r row) worseThan(first row) float64 {
	d := (r.Median - first.Median) / first.Median
	if r.Better == higher {
		return -d
	}
	return d
}

type setResult struct {
	Rows  []row             `json:"rows"`
	Layer map[string]values `json:"per_layer"` // by workload, from the traced runs
}

// setRecord is the -out line of an all-workloads invocation.
type setRecord struct {
	Time          string      `json:"time"`
	Machine       fingerprint `json:"machine"`
	Seconds       float64     `json:"seconds"`
	NonComparable bool        `json:"non_comparable,omitempty"` // -quick
	Sets          []setResult `json:"sets"`
}

func runChild(exe, workload string, seed uint64, seconds float64, traced bool, traceDir string) (outcome, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace, "--tracedir", traceDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return outcome{}, fmt.Errorf("%s seed %d trace %s: %w\n%s", workload, seed, trace, err, stderr.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res outcome
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return outcome{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

func runSet(exe string, o setOptions, set int) (setResult, error) {
	res := setResult{Layer: map[string]values{}}
	for _, w := range workloads {
		vals := map[string][]float64{}
		var seeds []uint64
		var samples int64
		for i := 0; i < o.reps; i++ {
			seed := o.seed + uint64(set*o.reps+i)
			fmt.Fprintf(os.Stderr, "set %d: %s seed %d\n", set+1, w.Name, seed)
			out, err := runChild(exe, w.Name, seed, o.seconds, false, o.traceDir)
			if err != nil {
				return res, err
			}
			for name, r := range out.Metrics {
				vals[name] = append(vals[name], r.Value)
			}
			seeds = append(seeds, seed)
			samples += out.Attempted
		}
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(vals[d.Name])
			res.Rows = append(res.Rows, row{w.Name, d.Name, d.Unit, d.Better, d.Bound,
				seeds, len(vals[d.Name]), q2, q1, q3, vals[d.Name], samples})
		}
		if set > 0 {
			continue // the per-layer numbers have no bound to check twice
		}
		fmt.Fprintf(os.Stderr, "set %d: %s traced\n", set+1, w.Name)
		out, err := runChild(exe, w.Name, o.seed, o.seconds, true, o.traceDir)
		if err != nil {
			return res, err
		}
		layer := values{}
		for name, r := range out.Metrics {
			layer[name] = r.Value
		}
		res.Layer[w.Name] = layer
	}
	return res, nil
}

func runSets(o setOptions) error {
	if o.quick {
		o.seconds, o.reps = quickSeconds, 1
	}
	if o.reps < 1 {
		return fmt.Errorf("-reps %d: need at least one run", o.reps)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	nsets := 1
	if o.check {
		nsets = 2
	}
	rec := setRecord{Time: time.Now().UTC().Format(time.RFC3339), Machine: machine(), Seconds: o.seconds, NonComparable: o.quick}
	for s := 0; s < nsets; s++ {
		r, err := runSet(exe, o, s)
		if err != nil {
			return err
		}
		rec.Sets = append(rec.Sets, r)
	}

	fp := rec.Machine
	fmt.Printf("gowool bench: %s, %d CPUs, GOMAXPROCS %d, kernel %s; %g s runs, seeds from %d\n",
		fp.Go, fp.NumCPU, fp.GOMAXPROCS, fp.Kernel, o.seconds, o.seed)
	if o.quick {
		fmt.Println("QUICK RUN: these numbers are not comparable with full runs")
	}
	first := rec.Sets[0]
	fmt.Printf("\n%-18s %-15s %-6s %3s %14s %14s %14s %8s %6s\n", "workload", "metric", "unit", "n", "median", "p25", "p75", "spread", "bound")
	for _, r := range first.Rows {
		fmt.Printf("%-18s %-15s %-6s %3d %14.4f %14.4f %14.4f %7.1f%% %5.0f%%\n",
			r.Workload, r.Metric, r.Unit, r.N, r.Median, r.P25, r.P75, 100*r.spread(), 100*r.Bound)
	}
	for _, w := range workloads {
		fmt.Printf("\nper-layer, %s (traced run, seed %d):\n", w.Name, o.seed)
		for _, d := range perLayer {
			fmt.Printf("  %-34s %16.4f %s\n", d.Name, first.Layer[w.Name][d.Name], d.Unit)
		}
	}

	var failed int
	if o.check {
		fmt.Printf("\n%-18s %-15s %14s %14s %9s %8s %6s\n", "workload", "metric", "median 1", "median 2", "2 worse", "spread", "bound")
		for i, a := range first.Rows {
			b := rec.Sets[1].Rows[i]
			worse, spread := b.worseThan(a), math.Max(a.spread(), b.spread())
			verdict := ""
			// Set-up time is held to its bound between the two medians
			// only; its spread inside a set is not.
			if worse > a.Bound || (a.Metric != "setup_s" && spread > a.Bound) {
				verdict = "  FAIL"
				failed++
			}
			fmt.Printf("%-18s %-15s %14.4f %14.4f %+8.1f%% %7.1f%% %5.0f%%%s\n",
				a.Workload, a.Metric, a.Median, b.Median, 100*worse, 100*spread, 100*a.Bound, verdict)
		}
	}
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("check: %d end-to-end metrics disagree between two sets of the same code by more than their bound", failed)
	}
	return nil
}
