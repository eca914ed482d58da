package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// now reads the host clock. Every host-time figure the benchmark reports
// goes through this one read.
func now() time.Time {
	//cdelint:allow walltime the benchmark measures host time by design
	return time.Now()
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuSplit is a reading of the runtime's CPU accounting classes.
type cpuSplit struct {
	gc, total, idle float64
}

var cpuSampleNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readCPU() cpuSplit {
	samples := make([]rtmetrics.Sample, len(cpuSampleNames))
	for i, name := range cpuSampleNames {
		samples[i].Name = name
	}
	rtmetrics.Read(samples)
	get := func(i int) float64 {
		if samples[i].Value.Kind() != rtmetrics.KindFloat64 {
			return 0
		}
		return samples[i].Value.Float64()
	}
	return cpuSplit{gc: get(0), total: get(1), idle: get(2)}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// phase accumulates a workload's timed phase: host time and heap
// allocations summed over one or more begin/end intervals.
type phase struct {
	wall    time.Duration
	mallocs uint64

	start time.Time
	m0    uint64
}

func (p *phase) begin() {
	p.m0 = mallocs()
	p.start = now()
}

// end closes the interval and returns its host duration.
func (p *phase) end() time.Duration {
	d := now().Sub(p.start)
	p.mallocs += mallocs() - p.m0
	p.wall += d
	return d
}

// gcShare is GC CPU over busy (non-idle) CPU between two readings.
func gcShare(a, b cpuSplit) float64 {
	busy := (b.total - b.idle) - (a.total - a.idle)
	if busy <= 0 {
		return 0
	}
	return (b.gc - a.gc) / busy
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// high-water mark, so the next workload in the same process reports its
// own peak. It reports whether the reset took effect.
func resetPeakRSS() bool {
	runtime.GC() // a second cycle empties the sync.Pools the last workload filled
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets the peak RSS of this process only
	// (Linux >= 4.0).
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// percentile is the nearest-rank percentile (p in [0,1]) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// median is the middle value of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
