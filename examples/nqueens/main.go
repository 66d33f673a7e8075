// N-queens: an irregular search-tree workload — exactly the shape the
// paper's introduction motivates, where subtree sizes are unpredictable
// so manual cut-offs are error-prone but fine-grained spawns are
// nearly free. Every placement level spawns one branch per column with
// no granularity control at all; the search task, written on the
// public gowool API, is in internal/workloads/nqueens.
//
//	go run ./examples/nqueens [n]
package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"gowool"
	"gowool/internal/workloads/nqueens"
)

func main() {
	n := int64(11)
	if len(os.Args) > 1 {
		if v, err := strconv.ParseInt(os.Args[1], 10, 64); err == nil {
			n = v
		}
	}
	if n > nqueens.MaxN {
		fmt.Printf("n must be ≤ %d (4-bit column packing)\n", nqueens.MaxN)
		os.Exit(2)
	}

	pool := gowool.NewPool(gowool.Options{
		Workers:      runtime.GOMAXPROCS(0),
		PrivateTasks: true,
		// Irregular trees want a wider public window (paper §III-B:
		// "very unbalanced trees require more").
		InitialPublic: 8,
		PublishAmount: 8,
	})
	defer pool.Close()

	t0 := time.Now()
	want := nqueens.Serial(n)
	serialTime := time.Since(t0)

	t0 = time.Now()
	got := nqueens.Count(pool, n)
	parTime := time.Since(t0)

	if got != want {
		fmt.Printf("MISMATCH: %d != %d\n", got, want)
		os.Exit(1)
	}
	st := pool.Stats()
	fmt.Printf("%d-queens solutions: %d\n", n, got)
	fmt.Printf("serial: %v    scheduled (%d workers): %v\n", serialTime, pool.Workers(), parTime)
	fmt.Printf("spawns: %d   steals: %d   trip-wire publications: %d\n",
		st.Spawns, st.Steals, st.Publications)
}
