package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one named number of a run's result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windows is how many equal spans of time a closed loop's measured stretch
// is cut into. Its latency quantiles and read rate are the medians over the
// spans of each span's own, so a few seconds in which the host ran the
// process slowly move them less than they move the stretch's quantiles. A
// span holds about a hundred reads on magic-fixpoint, the slowest
// workload, so its p90 still has about ten reads beyond it.
const windows = 8

// windowStats returns the medians over windows equal spans of elapsed
// seconds of each span's p50 and p90 latency and of its completed reads
// per second. endS[i] is when the read of latMS[i] returned.
func windowStats(latMS, endS []float64, elapsed float64) (p50, p90, qps float64) {
	lat := make([][]float64, windows)
	for i, e := range endS {
		w := min(int(e/elapsed*windows), windows-1)
		lat[w] = append(lat[w], latMS[i])
	}
	var w50, w90, wqps []float64
	for _, l := range lat {
		w50 = append(w50, quantile(l, .5))
		w90 = append(w90, quantile(l, .9))
		wqps = append(wqps, float64(len(l))/(elapsed/windows))
	}
	return median(w50), median(w90), median(wqps)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/(a+b), or 0 when both are zero.
func ratio(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	at       time.Time
	cpu      time.Duration // user + system CPU of the whole process
	alloc    uint64        // runtime.MemStats.TotalAlloc
	gcCPU    float64       // runtime/metrics GC CPU seconds
	totalCPU float64       // runtime/metrics total CPU seconds
}

// processCPU is the user + system CPU time of the whole process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUsage() usage {
	cpu := processCPU()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return usage{
		at:       time.Now(),
		cpu:      cpu,
		alloc:    m.TotalAlloc,
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
	}
}

// cost is the resource use between two readings, per completed operation.
type cost struct {
	cpuMSPerOp   float64
	allocKBPerOp float64
	gcCPUFrac    float64
}

func costBetween(a, b usage, ops int) cost {
	n := float64(max(ops, 1))
	c := cost{
		cpuMSPerOp:   ms(b.cpu-a.cpu) / n,
		allocKBPerOp: float64(b.alloc-a.alloc) / 1024 / n,
	}
	if d := b.totalCPU - a.totalCPU; d > 0 {
		c.gcCPUFrac = (b.gcCPU - a.gcCPU) / d
	}
	return c
}
