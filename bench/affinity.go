package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The benchmark places its threads on CPUs itself. Some hosts (the
// sandbox this was sized in among them: cpuset.sched_load_balance = 0)
// run without scheduler load balancing, and there a thread stays on the
// CPU it was created or last woken on: all of a process's threads can
// sit on one CPU for minutes while the other idles, and whether they do
// varies from run to run. A 2-worker Run then takes as long as a
// 1-worker one. So the two activities a workload sets against each
// other are pinned to the first two CPUs the process may use:
//
//   - the main goroutine is locked to the main thread, on cpuA; it is
//     worker 0 of the batch workloads and the open loop's generator;
//   - every other thread is pinned to cpuB, and threads made later
//     inherit that (the runtime starts them from its template thread,
//     not from a locked one);
//   - closed-loop clients place themselves: see closed.runClients.
//
// Nothing is pinned until initAffinity has run (the tests do not).

// cpuSet is the kernel's CPU mask, 1024 CPUs wide.
type cpuSet [16]uint64

var (
	pinning    bool
	cpuA, cpuB int
)

const (
	pinEvery = 64
	anyCPU   = -1
)

// initAffinity reads the CPUs the process may run on, locks the main
// goroutine to the main thread and places the threads that exist.
func initAffinity() error {
	var allowed cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for cpu := 0; cpu < len(allowed)*64 && len(cpus) < 2; cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	cpuA, cpuB = cpus[0], cpus[len(cpus)-1]
	pinning = true
	runtime.LockOSThread()
	if err := pinThread(0, cpuA); err != nil {
		return err
	}
	return placeOthers(cpuB)
}

// pinThread binds thread tid (0: the calling thread) to one CPU, or to
// cpuA and cpuB both when cpu is anyCPU.
func pinThread(tid, cpu int) error {
	var set cpuSet
	if cpu == anyCPU {
		set[cpuA/64] |= 1 << (cpuA % 64)
		set[cpuB/64] |= 1 << (cpuB % 64)
	} else {
		set[cpu/64] = 1 << (cpu % 64)
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d, cpu %d): %w", tid, cpu, errno)
	}
	return nil
}

// placeOthers pins every thread of the process but the calling one to
// cpu. A thread that exits meanwhile is skipped.
func placeOthers(cpu int) error {
	if !pinning {
		return nil
	}
	self := syscall.Gettid()
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil || tid == self {
			continue
		}
		if err := pinThread(tid, cpu); err != nil && !errors.Is(err, syscall.ESRCH) {
			return err
		}
	}
	return nil
}
