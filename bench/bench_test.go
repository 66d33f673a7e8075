package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(benchProcs)
	debug.SetGCPercent(gcPercent)
	os.Exit(m.Run())
}

// The histogram's percentiles must be within 1 % of the exact ones, on
// values spread over the six decades the benchmark sees (tens of ns to
// tens of ms).
func TestHistPercentileError(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	h := newHist()
	exact := make([]float64, 200_000)
	for i := range exact {
		v := int64(math.Exp(rng.Float64() * math.Log(5e7)))
		exact[i] = float64(v)
		h.record(v)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		want := exact[int(math.Ceil(q*float64(len(exact))))-1]
		got := h.quantile(q)
		if want >= subBuckets && math.Abs(got-want)/want > 0.01 {
			t.Errorf("p%g: histogram %v, exact %v: off by more than 1 %%", 100*q, got, want)
		}
	}
	other := newHist()
	other.merge(h)
	if other.n != h.n || other.quantile(0.5) != h.quantile(0.5) {
		t.Errorf("merge into an empty histogram changed it: n %d != %d", other.n, h.n)
	}
	h.reset()
	if h.n != 0 || h.quantile(0.5) != 0 {
		t.Errorf("reset left %d values behind", h.n)
	}
}

func TestBucketsAreContiguous(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<20 + 1, math.MaxInt64} {
		b := bucketOf(v)
		if mid := bucketMid(b); bucketOf(int64(mid)) != b {
			t.Errorf("value %d: bucket %d reports %v, which lies in bucket %d", v, b, mid, bucketOf(int64(mid)))
		}
	}
	if bucketOf(math.MaxInt64) >= len(newHist().counts) {
		t.Fatal("the largest value falls outside the histogram")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

// The same seed must give the same arrivals, another seed other ones,
// and the arrivals must be a Poisson process of the asked rate.
func TestPoissonScheduleIsSeeded(t *testing.T) {
	gen := func(seed uint64) []int64 {
		return poissonSchedule(rand.New(rand.NewPCG(seed, 0x09e7)), 10_000, 2*time.Second)
	}
	a, b, c := gen(1), gen(1), gen(2)
	if !slices.Equal(a, b) {
		t.Error("seed 1 gave two different schedules")
	}
	if slices.Equal(a, c) {
		t.Error("seeds 1 and 2 gave the same schedule")
	}
	if !slices.IsSorted(a) || a[len(a)-1] >= int64(2*time.Second) {
		t.Error("arrivals are not ascending inside the phase")
	}
	if n := float64(len(a)); math.Abs(n-20_000) > 4*math.Sqrt(20_000) {
		t.Errorf("%v arrivals in 2 s at 10000/s", n)
	}
}

func TestRequestMixIsSeeded(t *testing.T) {
	draw := func(seed uint64) (classes []bool, slow int) {
		mix := newMix(seed)
		for i := 0; i < 40_000; i++ {
			s := nextIsSlow(mix)
			classes = append(classes, s)
			if s {
				slow++
			}
		}
		return classes, slow
	}
	a, slow := draw(1)
	b, _ := draw(1)
	c, _ := draw(2)
	if !slices.Equal(a, b) {
		t.Error("seed 1 gave two different mixes")
	}
	if slices.Equal(a, c) {
		t.Error("seeds 1 and 2 gave the same mix")
	}
	if share := float64(slow) / float64(len(a)); math.Abs(share-1.0/slowOneIn) > 0.01 {
		t.Errorf("slow share %v, want 1 in %d", share, slowOneIn)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "request", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "a", start: 20, end: 50, parent: 0},  // overlaps its sibling
		{name: "b", start: 90, end: 120, parent: 0}, // sticks out of the parent
		{name: "leaf", start: 12, end: 18, parent: 1},
		{name: "request", start: 200, end: 260, parent: -1}, // no children
	}
	got := selfTimes(spans)
	want := map[string]selfTime{
		// [10,50) and [90,100) are covered: 100 - 40 - 10, plus 60.
		"request": {count: 2, total: 160, self: 110},
		"a":       {count: 2, total: 50, self: 44},
		"b":       {count: 1, total: 30, self: 30},
		"leaf":    {count: 1, total: 6, self: 6},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d span names, want %d", len(got), len(want))
	}
}

func TestSpanBufDropsWhenFull(t *testing.T) {
	b := newSpanBuf(2)
	root := b.add("request", 0, 10, -1, 1, 0)
	b.add("child", 1, 2, root, 1, 0)
	if b.room(1) || b.add("late", 3, 4, root, 1, 0) != -1 || b.dropped != 1 {
		t.Errorf("a full buffer took a span: %d spans, %d dropped", len(b.spans), b.dropped)
	}
	merged := mergeSpans([]*spanBuf{b, b})
	if len(merged.spans) != 4 || merged.spans[3].parent != 2 || merged.dropped != 2 {
		t.Errorf("merge: %d spans, second child's parent %d, %d dropped", len(merged.spans), merged.spans[3].parent, merged.dropped)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json is generated from catalog.go and must stay inside the
// driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(committed) != string(specJSON()) {
		t.Error("BENCHMARK.json is not `go run . -spec`; regenerate it")
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not letters, digits, _ . - (at most 64)", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	hasSetup := false
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		name(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}

// Every workload must come through both kinds of run with a correct
// result, exactly the catalogue's names, and a trace file that loads.
func TestWorkloadsEmitTheCatalogue(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a fraction of a second")
	}
	const d = 200 * time.Millisecond
	dir := t.TempDir()
	for _, w := range workloads {
		plain, err := runUntraced(w.Name, 1, d)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		traced, err := runTraced(w.Name, 1, 2*d, dir)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		for kind, c := range map[string]struct {
			out  outcome
			defs []metricDef
		}{"untraced": {plain, endToEnd}, "traced": {traced, perLayer}} {
			if !c.out.Correct || c.out.Failed != 0 || c.out.Attempted < 1 {
				t.Errorf("%s %s: correct=%v, %d of %d failed", w.Name, kind, c.out.Correct, c.out.Failed, c.out.Attempted)
			}
			if len(c.out.Metrics) != len(c.defs) {
				t.Errorf("%s %s: %d metrics, the catalogue has %d", w.Name, kind, len(c.out.Metrics), len(c.defs))
			}
			for _, def := range c.defs {
				r, ok := c.out.Metrics[def.Name]
				if !ok || r.Unit != def.Unit || math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
					t.Errorf("%s %s: metric %s = %+v (present %v)", w.Name, kind, def.Name, r, ok)
				}
			}
		}
		for _, def := range endToEnd {
			if plain.Metrics[def.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, def.Name, plain.Metrics[def.Name].Value)
			}
		}

		raw, err := os.ReadFile(filepath.Join(dir, w.Name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Ts   float64 `json:"ts"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatalf("%s: trace file does not load: %v", w.Name, err)
		}
		if len(file.TraceEvents) == 0 {
			t.Errorf("%s: trace file has no spans", w.Name)
		}
		for _, e := range file.TraceEvents {
			if e.Ph != "X" || e.Name == "" || e.Dur < 0 {
				t.Fatalf("%s: bad trace event %+v", w.Name, e)
			}
		}
	}
}
