package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// procSample is a snapshot of the process-wide counters the benchmark
// divides by its operation count: CPU time, GC cycles and allocations.
type procSample struct {
	at         time.Time
	cpu        time.Duration
	gcCycles   uint64
	allocBytes uint64
	gcCPU      time.Duration // CPU the collector used, concurrently or in pauses
}

var procMetrics = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func sampleProc() procSample {
	s := procSample{at: time.Now(), cpu: cpuTime()}
	m := make([]metrics.Sample, len(procMetrics))
	for i, name := range procMetrics {
		m[i].Name = name
	}
	metrics.Read(m)
	s.gcCycles = m[0].Value.Uint64()
	s.allocBytes = m[1].Value.Uint64()
	s.gcCPU = time.Duration(m[2].Value.Float64() * float64(time.Second))
	return s
}

// procDelta is the difference between two samples.
type procDelta struct {
	wall, cpu, gcCPU     time.Duration
	gcCycles, allocBytes uint64
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		wall:       b.at.Sub(a.at),
		cpu:        b.cpu - a.cpu,
		gcCPU:      b.gcCPU - a.gcCPU,
		gcCycles:   b.gcCycles - a.gcCycles,
		allocBytes: b.allocBytes - a.allocBytes,
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocObjects reads the cumulative heap allocation count alone — cheap
// enough to bracket every simulator window.
func allocObjects() uint64 {
	m := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(m)
	return m[0].Value.Uint64()
}

// liveHeap forces a collection and returns the heap marked live by it.
func liveHeap() uint64 {
	runtime.GC()
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	return m[0].Value.Uint64()
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// setupTimes records the wall and CPU time of each set-up round.
type setupTimes struct{ wall, cpu []time.Duration }

func (s *setupTimes) round(fn func() error) error {
	w0, c0 := time.Now(), cpuTime()
	err := fn()
	s.wall = append(s.wall, time.Since(w0))
	s.cpu = append(s.cpu, cpuTime()-c0)
	return err
}

// report sets setup_s to the median CPU time of a round. Set-up is a
// fixed amount of work, and CPU time measures it steadily where wall time
// on a shared VM moves by half between runs; the wall median is printed
// beside it.
func (s *setupTimes) report(r *report, what string) {
	r.set("setup_s", medianDur(s.cpu).Seconds(), "s",
		fmt.Sprintf("median process CPU time of %d set-ups: %s", len(s.cpu), what))
	r.info("setup_wall_s", medianDur(s.wall).Seconds(), "s", "median wall time of the same set-ups")
}
