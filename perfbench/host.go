package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// hostSample is one reading of the process-wide host counters. Two
// readings bracket every measured iteration, so set-up and output checks
// never enter the host metrics.
type hostSample struct {
	wall         time.Time
	cpuSec       float64 // user + system, getrusage
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcCPUSec     float64
}

var hostMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readHost() hostSample {
	ms := make([]metrics.Sample, len(hostMetricNames))
	for i, n := range hostMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostSample{
		wall:         time.Now(),
		cpuSec:       tvSec(ru.Utime) + tvSec(ru.Stime),
		allocBytes:   ms[0].Value.Uint64(),
		allocObjects: ms[1].Value.Uint64(),
		gcCycles:     ms[2].Value.Uint64(),
		gcCPUSec:     ms[3].Value.Float64(),
	}
}

func tvSec(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process memory high-water mark. On Linux getrusage's
// ru_maxrss is the same figure as VmHWM in /proc/self/status, in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}
