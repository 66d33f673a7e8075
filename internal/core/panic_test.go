package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// mustPanic runs f and returns the recovered panic value, failing the
// test if f returns normally.
func mustPanic(t *testing.T, what string, f func()) (r any) {
	t.Helper()
	defer func() {
		r = recover()
		if r == nil {
			t.Fatalf("%s: expected panic, got normal return", what)
		}
	}()
	f()
	return nil
}

// TestPoisonedPoolRejectsReuse pins the abort semantics of DESIGN.md
// §11: the first Run re-raises the original panic value, every later
// Run on the same pool fails fast with the distinct poisoned message
// (the task stacks may hold unjoined descriptors of the abandoned
// tree), and Close stays safe.
func TestPoisonedPoolRejectsReuse(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4})

	var boom *TaskDef1
	boom = Define1("boom", func(w *Worker, depth int64) int64 {
		if depth == 0 {
			panic("boom")
		}
		boom.Spawn(w, depth-1)
		boom.Call(w, depth-1)
		boom.Join(w)
		return 0
	})
	r := mustPanic(t, "first Run", func() {
		p.Run(func(w *Worker) int64 { return boom.Call(w, 10) })
	})
	if fmt.Sprint(r) != "boom" {
		t.Fatalf("first Run re-raised %v, want the original value boom", r)
	}

	r = mustPanic(t, "second Run on poisoned pool", func() {
		p.Run(func(w *Worker) int64 { return 0 })
	})
	msg, ok := r.(string)
	if !ok || !strings.Contains(msg, "pool poisoned by earlier task panic") ||
		!strings.Contains(msg, "boom") {
		t.Fatalf("poisoned Run panicked with %v, want the poisoned message naming the original panic", r)
	}

	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on a poisoned pool")
	}
}

// TestRootPanicPoisonsPool covers the root-panic corruption bug: a
// panic escaping the root function used to leave worker 0's unjoined
// public descriptors stealable with the pool reusable. Now it must
// re-raise from Run, poison the pool, and stop the idle workers from
// executing the abandoned descriptors in the background.
func TestRootPanicPoisonsPool(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	// Spinning thieves (no sleep) make any post-panic execution of the
	// leaked descriptor as likely as possible if poisoning failed.
	p := NewPool(Options{Workers: 4, MaxIdleSleep: -1})
	defer p.Close()

	ranAfterPanic := make(chan struct{}, 8)
	leak := Define1("leak", func(w *Worker, x int64) int64 {
		ranAfterPanic <- struct{}{}
		return x
	})
	r := mustPanic(t, "Run with panicking root", func() {
		p.Run(func(w *Worker) int64 {
			leak.Spawn(w, 1) // deliberately never joined
			panic("root boom")
		})
	})
	if fmt.Sprint(r) != "root boom" {
		t.Fatalf("Run re-raised %v, want root boom", r)
	}

	// The leaked public descriptor must not be picked up by the (now
	// poison-stopped) idle workers. The task may legitimately have been
	// stolen before the panic was recorded; anything after this window
	// means a thief survived the poisoning.
	time.Sleep(20 * time.Millisecond)
	drained := len(ranAfterPanic)
	time.Sleep(50 * time.Millisecond)
	if got := len(ranAfterPanic); got > drained {
		t.Errorf("leaked descriptor executed %d more times after the poison settled", got-drained)
	}

	r = mustPanic(t, "Run on root-poisoned pool", func() {
		p.Run(func(w *Worker) int64 { return 0 })
	})
	if msg := fmt.Sprint(r); !strings.Contains(msg, "pool poisoned by earlier task panic: root boom") {
		t.Fatalf("poisoned Run panicked with %v, want the poisoned message", r)
	}
}

// TestPanicValuePreserved: the re-raised value must be the original
// panic value (not a formatted copy), so errors.Is/As keep working on
// error panics across the scheduler boundary.
func TestPanicValuePreserved(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	type marker struct{ n int }
	want := &marker{n: 42}
	r := mustPanic(t, "Run", func() {
		p.Run(func(w *Worker) int64 { panic(want) })
	})
	if r != want {
		t.Fatalf("re-raised value %v is not the original panic value", r)
	}
}

// TestLeapfroggedPanicUnwindsTheJoiner: a task that a blocked join took
// by leapfrogging runs nested in that join, on the joiner's stack. When
// it panics with a spawn outstanding, runStolen recovers — the
// descriptor must reach DONE — but the joiner's frames cannot go on:
// the next joins would pop the abandoned spawn in place of their own,
// and Run would end on its unjoined-tasks check instead of the panic
// value. The joiner re-raises as soon as the nested task is done.
func TestLeapfroggedPanicUnwindsTheJoiner(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 2, MaxIdleSleep: -1})
	defer p.Close()
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	childSpawned := make(chan struct{})
	childTaken := make(chan struct{})
	child := Define1("child", func(w *Worker, x int64) int64 {
		close(childTaken) // on worker 0: outer holds worker 1 until now
		noop.Spawn(w, 1)  // never joined
		panic("boom")
	})
	outer := Define1("outer", func(w *Worker, x int64) int64 {
		child.Spawn(w, 0)
		close(childSpawned)
		<-childTaken
		return child.Join(w)
	})
	r := mustPanic(t, "Run with a panicking leapfrogged task", func() {
		p.Run(func(w *Worker) int64 {
			outer.Spawn(w, 0)
			<-childSpawned       // worker 1 stole outer: nobody else runs it before the join
			return outer.Join(w) // stolen: leapfrog takes child from worker 1
		})
	})
	if r != "boom" {
		t.Fatalf("Run re-raised %v, want the leapfrogged task's panic value", r)
	}
}
