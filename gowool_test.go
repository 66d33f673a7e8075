package gowool_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gowool"
)

// ExampleDefine1 is the paper's Figure 2: fib with SPAWN/CALL/JOIN.
func ExampleDefine1() {
	var fib *gowool.TaskDef1
	fib = gowool.Define1("fib", func(w *gowool.Worker, n int64) int64 {
		if n < 2 {
			return n
		}
		fib.Spawn(w, n-2)
		a := fib.Call(w, n-1)
		b := fib.Join(w)
		return a + b
	})

	pool := gowool.NewPool(gowool.Options{Workers: 2})
	defer pool.Close()
	fmt.Println(pool.Run(func(w *gowool.Worker) int64 { return fib.Call(w, 20) }))
	// Output: 6765
}

// ExampleDefineC2 parallelizes over a shared structure: the context
// pointer rides in the task descriptor without allocation.
func ExampleDefineC2() {
	type vec struct{ a []int64 }
	var sum *gowool.TaskDefC2[vec]
	sum = gowool.DefineC2("sum", func(w *gowool.Worker, v *vec, lo, hi int64) int64 {
		if hi-lo <= 4 {
			var s int64
			for i := lo; i < hi; i++ {
				s += v.a[i]
			}
			return s
		}
		mid := (lo + hi) / 2
		sum.Spawn(w, v, lo, mid)
		right := sum.Call(w, v, mid, hi)
		left := sum.Join(w)
		return left + right
	})

	v := &vec{a: make([]int64, 100)}
	for i := range v.a {
		v.a[i] = int64(i)
	}
	pool := gowool.NewPool(gowool.Options{Workers: 2, PrivateTasks: true})
	defer pool.Close()
	fmt.Println(pool.Run(func(w *gowool.Worker) int64 { return sum.Call(w, v, 0, 100) }))
	// Output: 4950
}

func TestPublicAPISurface(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	// Every Define arity through the public package.
	d1 := gowool.Define1("d1", func(w *gowool.Worker, a int64) int64 { return a })
	d2 := gowool.Define2("d2", func(w *gowool.Worker, a, b int64) int64 { return a + b })
	d3 := gowool.Define3("d3", func(w *gowool.Worker, a, b, c int64) int64 { return a + b + c })
	d4 := gowool.Define4("d4", func(w *gowool.Worker, a, b, c, d int64) int64 { return a + b + c + d })
	type ctx struct{ mult int64 }
	c1 := gowool.DefineC1("c1", func(w *gowool.Worker, c *ctx, a int64) int64 { return c.mult * a })
	c2 := gowool.DefineC2("c2", func(w *gowool.Worker, c *ctx, a, b int64) int64 { return c.mult * (a + b) })
	c3 := gowool.DefineC3("c3", func(w *gowool.Worker, c *ctx, a, b, d int64) int64 { return c.mult * (a + b + d) })

	p := gowool.NewPool(gowool.Options{Workers: 3, PrivateTasks: true})
	defer p.Close()
	cx := &ctx{mult: 2}
	got := p.Run(func(w *gowool.Worker) int64 {
		d1.Spawn(w, 1)
		d2.Spawn(w, 1, 2)
		d3.Spawn(w, 1, 2, 3)
		d4.Spawn(w, 1, 2, 3, 4)
		c1.Spawn(w, cx, 5)
		c2.Spawn(w, cx, 5, 6)
		c3.Spawn(w, cx, 5, 6, 7)
		var s int64
		for i := 0; i < 7; i++ {
			s += w.JoinAny()
		}
		return s
	})
	want := int64(1 + 3 + 6 + 10 + 10 + 22 + 36)
	if got != want {
		t.Errorf("got %d, want %d", got, want)
	}

	st := p.Stats()
	if st.Spawns != 7 || st.Joins() != 7 {
		t.Errorf("stats: %+v", st)
	}
}

// ExampleFor parallelizes a loop as a balanced task tree (Wool's loop
// construct, as used by the paper's mm benchmark).
func ExampleFor() {
	pool := gowool.NewPool(gowool.Options{Workers: 2, PrivateTasks: true})
	defer pool.Close()

	squares := make([]int64, 8)
	pool.Run(func(w *gowool.Worker) int64 {
		gowool.For(w, 0, int64(len(squares)), 2, func(i int64) {
			squares[i] = i * i
		})
		return 0
	})
	fmt.Println(squares)
	// Output: [0 1 4 9 16 25 36 49]
}

// fibRec is fib(root) as a servable job description.
func fibRec(root int64) gowool.RecJob {
	return gowool.RecJob{
		Name: "fib",
		Root: root,
		Leaf: func(n int64) (int64, bool) {
			if n < 2 {
				return n, true
			}
			return 0, false
		},
		Split: func(n int64) (inline, spawned int64) { return n - 1, n - 2 },
	}
}

// TestServerPublic exercises the woolserve surface through the public
// package: concurrent submissions, a mid-flight cancellation that
// kills only its own request, and the public abort/reset lifecycle on
// a plain Pool.
func TestServerPublic(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	fib := fibRec(15)
	const wantFib = 610

	s, err := gowool.NewServer(gowool.ServerOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var tks []*gowool.Ticket
	for i := 0; i < 8; i++ {
		tk, err := s.Submit(context.Background(), "", gowool.ServeRec(fib))
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	for _, tk := range tks {
		if v, err := tk.Wait(); err != nil || v != wantFib {
			t.Fatalf("fib(15): v=%d err=%v, want %d, nil", v, err, wantFib)
		}
	}

	// Mid-flight cancellation: a spinning request dies with its
	// context's error, the server keeps serving.
	var gate, started atomic.Bool
	spin := gowool.RecJob{
		Name: "spin",
		Root: 64,
		Leaf: func(n int64) (int64, bool) {
			if n < 0 {
				started.Store(true)
				for !gate.Load() {
					runtime.Gosched()
				}
				return 1, true
			}
			if n == 0 {
				return 1, true
			}
			return 0, false
		},
		Split: func(n int64) (inline, spawned int64) { return -1, n - 1 },
	}
	ctx, cancel := context.WithCancel(context.Background())
	victim, err := s.Submit(ctx, "", gowool.ServeRec(spin))
	if err != nil {
		t.Fatal(err)
	}
	for !started.Load() {
		runtime.Gosched()
	}
	cancel()
	time.Sleep(10 * time.Millisecond) // let the abort land mid-spin
	gate.Store(true)
	if _, werr := victim.Wait(); !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled request: err = %v, want context.Canceled", werr)
	}
	tk, err := s.Submit(context.Background(), "", gowool.ServeRec(fib))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tk.Wait(); err != nil || v != wantFib {
		t.Fatalf("post-cancel fib(15): v=%d err=%v, want %d, nil", v, err, wantFib)
	}
	if _, err := s.Submit(context.Background(), "ghost", gowool.ServeRec(fib)); !errors.Is(err, gowool.ErrUnknownTenant) {
		t.Fatalf("unknown tenant: err = %v, want ErrUnknownTenant", err)
	}

	// The abort machinery is public on Pool itself.
	p := gowool.NewPool(gowool.Options{Workers: 2})
	defer p.Close()
	probe := errors.New("probe")
	res := make(chan any, 1)
	var pgate, pstarted atomic.Bool
	busy := gowool.Define1("busy", func(w *gowool.Worker, n int64) int64 {
		pstarted.Store(true)
		for !pgate.Load() {
			runtime.Gosched()
		}
		return n
	})
	go func() {
		defer func() { res <- recover() }()
		p.Run(func(w *gowool.Worker) int64 { return busy.Call(w, 1) })
	}()
	for !pstarted.Load() {
		runtime.Gosched()
	}
	if !p.Abort(probe) {
		t.Fatal("Abort returned false on a running pool")
	}
	pgate.Store(true)
	r := <-res
	var ae *gowool.AbortError
	if e, ok := r.(error); !ok || !errors.As(e, &ae) || !errors.Is(ae, probe) {
		t.Fatalf("aborted Run panicked with %v, want *AbortError wrapping the probe", r)
	}
	if err := p.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	got := p.Run(func(w *gowool.Worker) int64 { return busy.Call(w, 7) })
	if got != 7 {
		t.Fatalf("post-Reset Run = %d, want 7", got)
	}
}

// TestServerLaneOptions writes ServerOptions.Pool and ConfigurePool from
// outside the module, which takes a public name for their type: a
// tracer per lane through ConfigurePool records on both lanes, and one
// tracer handed to both lanes through Pool is refused — its rings are
// single-writer per worker index.
func TestServerLaneOptions(t *testing.T) {
	const wantFib = 55 // fib(10)
	tracers := []*gowool.Tracer{gowool.NewTracer(1, 1<<10), gowool.NewTracer(1, 1<<10)}
	s, err := gowool.NewServer(gowool.ServerOptions{
		Workers:       2,
		ConfigurePool: func(lane int, o *gowool.LaneOptions) { o.Trace = tracers[lane] },
	})
	if err != nil {
		t.Fatal(err)
	}
	// One request holds a lane while the others run, so the others run
	// on the second lane.
	var gate, started atomic.Bool
	hold, err := s.Submit(context.Background(), "", gowool.ServeRec(gowool.RecJob{
		Name: "hold",
		Root: 1,
		Leaf: func(n int64) (int64, bool) {
			if n == 0 {
				started.Store(true)
				for !gate.Load() {
					runtime.Gosched()
				}
			}
			return 1, n <= 0
		},
		Split: func(n int64) (inline, spawned int64) { return 0, -1 },
	}))
	if err != nil {
		t.Fatal(err)
	}
	for !started.Load() {
		runtime.Gosched()
	}
	job := gowool.ServeRec(fibRec(10))
	for i := 0; i < 4; i++ {
		tk, err := s.Submit(context.Background(), "", job)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := tk.Wait(); err != nil || v != wantFib {
			t.Fatalf("traced fib(10): v=%d err=%v, want %d, nil", v, err, wantFib)
		}
	}
	gate.Store(true)
	if v, err := hold.Wait(); err != nil || v != 2 {
		t.Fatalf("held request: v=%d err=%v, want 2, nil", v, err)
	}
	s.Close()
	for lane, tr := range tracers {
		if len(tr.Snapshot()[0]) == 0 {
			t.Errorf("lane %d's tracer recorded nothing", lane)
		}
	}

	shared := gowool.LaneOptions{Trace: gowool.NewTracer(1, 1<<10)}
	if s, err := gowool.NewServer(gowool.ServerOptions{Workers: 2, Pool: shared}); err == nil {
		s.Close()
		t.Fatal("NewServer accepted one tracer shared by two lanes")
	}
}
