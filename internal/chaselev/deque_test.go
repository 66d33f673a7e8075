package chaselev

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// White-box tests of the Chase-Lev deque itself: the owner's
// popBottom racing thieves' CAS-takes over the last element.

func newTestWorker(size int) *Worker {
	p := &Pool{opts: Options{Workers: 1, DequeSize: size}.defaults()}
	w := &Worker{pool: p, buf: make([]atomic.Pointer[Task], p.opts.DequeSize), mask: int64(p.opts.DequeSize - 1)}
	p.workers = []*Worker{w}
	return w
}

func TestDequePushPopLIFO(t *testing.T) {
	w := newTestWorker(16)
	tasks := make([]*Task, 5)
	for i := range tasks {
		tasks[i] = &Task{a0: int64(i)}
		w.push(tasks[i])
	}
	for i := 4; i >= 0; i-- {
		got := w.popBottom()
		if got != tasks[i] {
			t.Fatalf("pop %d: got %v", i, got)
		}
		w.shadow = w.shadow[:len(w.shadow)-1]
	}
	if w.popBottom() != nil {
		t.Error("pop of empty deque returned a task")
	}
}

func TestDequeStealFIFO(t *testing.T) {
	w := newTestWorker(16)
	a, b := &Task{a0: 1}, &Task{a0: 2}
	w.push(a)
	w.push(b)
	// A thief takes from the top (oldest first).
	tp := w.top.Load()
	if got := w.buf[tp&w.mask].Load(); got != a {
		t.Fatalf("head is %v, want a", got)
	}
	if !w.top.CompareAndSwap(tp, tp+1) {
		t.Fatal("uncontended steal CAS failed")
	}
	// Owner pops the remaining task.
	if got := w.popBottom(); got != b {
		t.Fatalf("owner pop got %v, want b", got)
	}
}

// TestDequeLastElementRace hammers the one-element race: an owner
// popping while a thief CASes; exactly one side must win each round.
func TestDequeLastElementRace(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	w := newTestWorker(16)
	const rounds = 5000
	var ownerWins, thiefWins int
	for r := 0; r < rounds; r++ {
		task := &Task{a0: int64(r)}
		w.push(task)
		w.shadow = w.shadow[:0]

		var wg sync.WaitGroup
		var thiefGot atomic.Pointer[Task]
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := w.top.Load()
			b := w.bottom.Load()
			if tp >= b {
				return
			}
			tk := w.buf[tp&w.mask].Load()
			if tk != nil && w.top.CompareAndSwap(tp, tp+1) {
				thiefGot.Store(tk)
			}
		}()
		ownerGot := w.popBottom()
		wg.Wait()

		switch {
		case ownerGot == task && thiefGot.Load() == nil:
			ownerWins++
		case ownerGot == nil && thiefGot.Load() == task:
			thiefWins++
		default:
			t.Fatalf("round %d: owner=%v thief=%v (duplicate or lost)", r, ownerGot, thiefGot.Load())
		}
		// Reset canonical indices for the next round.
		if w.top.Load() != w.bottom.Load() {
			t.Fatalf("round %d: indices inconsistent: top=%d bottom=%d", r, w.top.Load(), w.bottom.Load())
		}
	}
	if ownerWins == 0 {
		t.Log("owner never won the race (unusual scheduling, not an error)")
	}
	t.Logf("owner wins: %d, thief wins: %d", ownerWins, thiefWins)
}

func TestWaitSpinPolicyBlocks(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 2, Wait: WaitSpin})
	defer p.Close()
	fib := fibDef()
	for i := 0; i < 5; i++ {
		if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 18) }); got != serialFib(18) {
			t.Fatalf("WaitSpin fib wrong: %d", got)
		}
	}
	if st := p.Stats(); st.WaitSteals != 0 {
		t.Errorf("WaitSpin executed %d tasks while blocked", st.WaitSteals)
	}
}

func TestWaitLeapfrogPolicy(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4, Wait: WaitLeapfrog})
	defer p.Close()
	fib := fibDef()
	for i := 0; i < 10; i++ {
		if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 19) }); got != serialFib(19) {
			t.Fatalf("WaitLeapfrog fib wrong: %d", got)
		}
	}
}

// TestStealTakesOldestOne: one successful trySteal against a victim
// with several queued tasks claims and runs exactly one, the oldest,
// and the victim's join of that task returns the thief's result.
func TestStealTakesOldestOne(t *testing.T) {
	p := NewPool(Options{Workers: 2})
	p.Close() // idle loops gone: the deques are driven by hand
	victim, thief := p.workers[0], p.workers[1]
	var ran []int64
	leaf := Define1("leaf", func(w *Worker, x int64) int64 {
		ran = append(ran, x)
		return 10 + x
	})
	for x := int64(0); x < 4; x++ {
		leaf.Spawn(victim, x)
	}
	if !thief.trySteal(victim, false) {
		t.Fatal("trySteal failed against a full deque")
	}
	if len(ran) != 1 || ran[0] != 0 {
		t.Fatalf("one steal ran %v, want [0]", ran)
	}
	if left := victim.bottom.Load() - victim.top.Load(); left != 3 {
		t.Fatalf("victim left with %d tasks, want 3", left)
	}
	if s := thief.steals.Load(); s != 1 {
		t.Fatalf("steals counter %d, want 1", s)
	}
	var sum int64
	for x := 0; x < 4; x++ {
		sum += leaf.Join(victim)
	}
	if sum != 46 {
		t.Fatalf("joins summed to %d, want 46", sum)
	}
}
