// Package spawnjoin is the analysistest fixture for the spawnjoin
// pass: statement-position Spawn* calls must be matched by Join* calls
// (or a Sync/Taskwait barrier) on every return path, and spawn
// arguments must not capture loop variables shared across iterations.
package spawnjoin

type def struct{}

func (d *def) SpawnFib(w *wkr, n int64)       {}
func (d *def) SpawnPtr(w *wkr, p *int64)      {}
func (d *def) SpawnFn(w *wkr, f func() int64) {}
func (d *def) SpawnRet(w *wkr, n int64) int64 { return 0 }
func (d *def) JoinFib(w *wkr) int64           { return 0 }

type wkr struct{}

func (w *wkr) Sync() {}

func balanced(d *def, w *wkr, n int64) int64 {
	d.SpawnFib(w, n-1)
	d.SpawnFib(w, n-2)
	a := d.JoinFib(w)
	b := d.JoinFib(w)
	return a + b
}

func leaks(d *def, w *wkr, n int64) {
	d.SpawnFib(w, n-1)
	d.SpawnFib(w, n-2)
	_ = d.JoinFib(w)
} // want `leaks returns with 1 unjoined spawned task`

func earlyReturn(d *def, w *wkr, n int64) int64 {
	d.SpawnFib(w, n)
	if n > 10 {
		return 0 // want `earlyReturn returns with 1 unjoined spawned task`
	}
	return d.JoinFib(w)
}

func fireAndForget(d *def, w *wkr, n int64) {
	for i := int64(0); i < n; i++ {
		d.SpawnFib(w, i)
	}
} // want `fireAndForget spawns tasks but contains no Join or Sync`

// correlated spawn/join conditionals are correct code; the
// must-analysis keeps quiet (cholesky's mulsubStep shape).
func correlated(d *def, w *wkr, flag bool, n int64) int64 {
	if flag {
		d.SpawnFib(w, n)
	}
	var r int64
	if flag {
		r = d.JoinFib(w)
	}
	return r
}

// spawn-loop/join-loop is the nqueens idiom: the join loop drains the
// outstanding count.
func spawnLoopJoinLoop(d *def, w *wkr, n int64) int64 {
	for i := int64(0); i < n; i++ {
		d.SpawnFib(w, i)
	}
	var sum int64
	for i := int64(0); i < n; i++ {
		sum += d.JoinFib(w)
	}
	return sum
}

// a barrier clears every outstanding spawn.
func barrier(d *def, w *wkr, n int64) {
	for i := int64(0); i < n; i++ {
		d.SpawnFib(w, i)
	}
	w.Sync()
}

// continuation-style spawns return the next step; their joins are
// managed by Sync steps elsewhere (the sim.W.Spawn idiom), so
// value-position spawns are exempt.
func continuation(d *def, w *wkr, n int64) int64 {
	return d.SpawnRet(w, n)
}

func captureShared(d *def, w *wkr, n int64) {
	var i int64
	for i = 0; i < n; i++ {
		d.SpawnPtr(w, &i) // want `spawn argument takes the address of loop variable i`
	}
	for j := int64(0); j < n; j++ {
		_ = d.JoinFib(w)
	}
}

func captureClosure(d *def, w *wkr, n int64) {
	var i int64
	for i = 0; i < n; i++ {
		d.SpawnFn(w, func() int64 { return i }) // want `spawn argument closure captures loop variable i`
	}
	w.Sync()
}

// per-iteration loop variables (Go >= 1.22 semantics) are safe.
func capturePerIteration(d *def, w *wkr, n int64) {
	for i := int64(0); i < n; i++ {
		d.SpawnFn(w, func() int64 { return i })
	}
	w.Sync()
}

// Package-scope spawn/join functions are the woolgen-generated idiom:
// the same balance discipline applies to free-function calls. The
// functions themselves are forwarding shims (Spawn*/Join* names) and
// are skipped as analysis units.
func SpawnTree(w *wkr, n int64)  {}
func JoinTree(w *wkr) int64      { return 0 }
func SpawnTreeN(w *wkr, n int64) {}
func JoinTreeN(w *wkr, n int64) int64 {
	var sum int64
	for ; n > 0; n-- {
		sum += JoinTree(w)
	}
	return sum
}

func freeBalanced(w *wkr, n int64) int64 {
	if n < 2 {
		return n
	}
	SpawnTree(w, n-2)
	a := freeBalanced(w, n-1)
	b := JoinTree(w)
	return a + b
}

func freeLeaks(w *wkr, n int64) {
	SpawnTree(w, n)
} // want `freeLeaks returns with 1 unjoined spawned task` `freeLeaks spawns tasks but contains no Join or Sync`

func freeEarlyReturn(w *wkr, n int64) int64 {
	SpawnTree(w, n)
	if n > 10 {
		return 0 // want `freeEarlyReturn returns with 1 unjoined spawned task`
	}
	return JoinTree(w)
}

// the generated batch pair: one SpawnN matched by one JoinN.
func freeBatch(w *wkr, n int64) int64 {
	SpawnTreeN(w, n)
	return JoinTreeN(w, n)
}
