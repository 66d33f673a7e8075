package main

import (
	"errors"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// epoch anchors the benchmark's clock. now reads only the monotonic
// clock (one vDSO call), which is what a span boundary can afford on a
// request that takes about a microsecond.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name: the calling OS thread's own CPU time.
const rusageThread = 1

// cpuTime returns user+system CPU time of the process
// (syscall.RUSAGE_SELF) or of the calling thread (rusageThread).
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB, from VmHWM
// in /proc/self/status. getrusage's ru_maxrss will not do: it survives
// exec, so it reports the launching shell's or driver's peak when that
// is the larger.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// heapAllocs reads the cumulative heap allocation counters without
// stopping the world (runtime.ReadMemStats would, between two timed
// chunks).
func heapAllocs() (objects, bytes uint64) {
	s := [2]metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// meter accumulates process CPU and heap allocations over the timed
// stretches of a run, leaving out what the harness does in between.
type meter struct {
	cpu            time.Duration
	objects, bytes uint64
	ops            int64
	// cpuPerOp has one value per stretch, in us: its median shrugs off
	// the stretch a neighbour on the host disturbed.
	cpuPerOp []float64

	cpu0       time.Duration
	obj0, byt0 uint64
}

func (m *meter) start() {
	m.obj0, m.byt0 = heapAllocs()
	m.cpu0 = cpuTime(syscall.RUSAGE_SELF)
}

// stop ends a stretch in which ops operations ran; notOurs is CPU time
// inside it that is not the system's (the open loop's generator).
func (m *meter) stop(ops int64, notOurs time.Duration) {
	cpu := cpuTime(syscall.RUSAGE_SELF) - m.cpu0 - notOurs
	o, b := heapAllocs()
	m.cpu += cpu
	m.objects += o - m.obj0
	m.bytes += b - m.byt0
	m.ops += ops
	m.cpuPerOp = append(m.cpuPerOp, float64(cpu)/1e3/float64(ops))
}

func (m *meter) allocsPerOp() float64 { return float64(m.objects) / float64(m.ops) }
func (m *meter) bytesPerOp() float64  { return float64(m.bytes) / float64(m.ops) }
