// Realtime: the paper's Section II motivation — "many (soft as well as
// hard) real time systems have periodic serialization points when
// input is consumed and output is produced. A natural way to program
// such a system is to parallelize each interval, which then becomes
// the parallel region."
//
// This example runs a sensor-fusion control loop on woolserve, the
// serving layer (gowool.Server): every tick the control stream submits
// its frame's parallel filter region as a request WITH THE TICK'S
// DEADLINE, and a lower-priority telemetry stream files its own frames
// concurrently. Two things the raw pool cannot express fall out:
//
//   - A tick that overruns its budget (a periodic "glitch" frame here
//     carries 100× the work) is aborted mid-flight by its context, the
//     lane's pool is reset, and the loop stays on schedule — a missed
//     deadline costs one frame, not the period.
//   - The two streams are weighted tenants on one worker budget:
//     control owns the larger lane team, so telemetry backlog can
//     never starve it.
//
// The parallel regions are tiny — exactly the load-balancing-
// granularity regime where scheduler overheads decide whether
// parallelism helps at all (paper Figure 1, right).
//
//	go run ./examples/realtime [ticks]
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"gowool"
)

const sensors = 64

type frame struct {
	readings [sensors]float64
	filtered [sensors]float64
}

// filterJob wraps one frame's filter pass — an exponential filter
// chain per sensor, ~1µs each (iters=400), as a balanced task tree —
// into a servable request. ServeRange builds its port; the frame
// travels by closure.
func filterJob(f *frame, iters int) gowool.Job {
	return gowool.ServeRange(gowool.RangeJob{
		Name: "filter",
		N:    sensors,
		Leaf: func(i int64) int64 {
			x := f.readings[i]
			est := x
			for k := 0; k < iters; k++ {
				est = 0.9*est + 0.1*(x+float64(k%7))
			}
			f.filtered[i] = est
			return 1
		},
	})
}

func main() {
	ticks := 2000
	if len(os.Args) > 1 {
		if v, err := strconv.Atoi(os.Args[1]); err == nil {
			ticks = v
		}
	}

	srv, err := gowool.NewServer(gowool.ServerOptions{
		Workers: runtime.GOMAXPROCS(0),
		Tenants: []gowool.Tenant{
			{Name: "control", Weight: 3},
			{Name: "telemetry", Weight: 1, MaxPending: 8},
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer srv.Close()

	const tickBudget = 2 * time.Millisecond
	var (
		lat      []time.Duration
		missed   int
		shed     int
		fused    float64
		telemOK  int
		telemTks []*gowool.Ticket
	)
	cf, tf := &frame{}, &frame{}
	for t := 0; t < ticks; t++ {
		// "Input is consumed": fresh frames arrive on both streams.
		for i := range cf.readings {
			cf.readings[i] = float64((t*31 + i*17) % 100)
			tf.readings[i] = float64((t*13 + i*29) % 100)
		}
		// Every 97th control frame is a glitch: 500× the work (tens of
		// milliseconds), far past the tick budget. The deadline aborts
		// it mid-flight — generously sized so the abort lands even on
		// a single-CPU host, where delivery waits on the Go runtime
		// preempting the busy worker before the timer goroutine runs.
		iters := 400
		if t%97 == 96 {
			iters = 200000
		}

		// Telemetry files its frame without a deadline; control's
		// request carries the tick budget.
		if tt, err := srv.Submit(context.Background(), "telemetry", filterJob(tf, 400)); err == nil {
			telemTks = append(telemTks, tt)
		}
		ctx, cancel := context.WithTimeout(context.Background(), tickBudget)
		ct, err := srv.Submit(ctx, "control", filterJob(cf, iters))
		if err != nil {
			// Admission control shed the frame (queue full).
			shed++
			cancel()
			continue
		}
		_, werr := ct.Wait()
		cancel()
		switch {
		case werr == nil:
			// "Output is produced": the serialization point.
			var s float64
			for _, v := range cf.filtered {
				s += v
			}
			fused += s / sensors
			lat = append(lat, ct.Latency())
		case errors.Is(werr, context.DeadlineExceeded):
			missed++ // one frame lost, the period holds
		default:
			fmt.Fprintf(os.Stderr, "tick %d: %v\n", t, werr)
			os.Exit(1)
		}

		// Keep the telemetry backlog bounded without blocking the
		// control period.
		if len(telemTks) > 4 {
			if _, err := telemTks[0].Wait(); err == nil {
				telemOK++
			}
			telemTks = telemTks[1:]
		}
	}
	for _, tt := range telemTks {
		if _, err := tt.Wait(); err == nil {
			telemOK++
		}
	}

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) time.Duration {
		if len(lat) == 0 {
			return 0
		}
		return lat[int(p*float64(len(lat)-1))]
	}
	st := srv.Stats()
	var laneSplit string
	for _, ts := range st.Tenants {
		laneSplit += fmt.Sprintf(" %s=%d", ts.Name, ts.Lanes)
	}
	fmt.Printf("%d ticks, %d sensors/frame, %d lanes (%s )\n", ticks, sensors, st.Lanes, laneSplit)
	fmt.Printf("control: latency p50=%v p90=%v p99=%v max=%v\n", pct(0.50), pct(0.90), pct(0.99), pct(1.0))
	fmt.Printf("control: %d/%d deadlines met, %d aborted mid-flight, %d shed at admission (budget %v)\n",
		len(lat), ticks, missed, shed, tickBudget)
	fmt.Printf("telemetry: %d frames filtered concurrently\n", telemOK)
	fmt.Printf("fused checksum: %.3f\n", fused)
}
