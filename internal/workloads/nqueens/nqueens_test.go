package nqueens

import (
	"runtime"
	"testing"

	"gowool"
)

// Known n-queens solution counts.
var known = map[int64]int64{
	1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724,
}

func TestSerialKnownCounts(t *testing.T) {
	for n, want := range known {
		if got := Serial(n); got != want {
			t.Errorf("Serial(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestWoolMatchesSerial runs the search on one to four private-task
// workers, the four-worker pool with the wider public window that
// examples/nqueens configures.
func TestWoolMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, o := range []gowool.Options{
		{Workers: 1, PrivateTasks: true},
		{Workers: 2, PrivateTasks: true},
		{Workers: 4, PrivateTasks: true, InitialPublic: 8, PublishAmount: 8},
	} {
		p := gowool.NewPool(o)
		for n := int64(1); n <= 8; n++ {
			if got := Count(p, n); got != known[n] {
				t.Errorf("%+v n=%d: %d, want %d", o, n, got, known[n])
			}
		}
		p.Close()
	}
}

// TestQuickWoolEquivalence runs n = 1..8 on a fresh three-worker pool
// with public tasks only.
func TestQuickWoolEquivalence(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for n := int64(1); n <= 8; n++ {
		p := gowool.NewPool(gowool.Options{Workers: 3})
		if got := Count(p, n); got != Serial(n) {
			t.Errorf("n=%d: %d, want %d", n, got, Serial(n))
		}
		p.Close()
	}
}
