package obs

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Run.Sample captures what the learner itself cannot see: how much memory
// the process actually holds (RSS from the kernel, not just Go heap
// accounting), how the heap and GC behaved, and how many goroutines are
// live. The binaries take one sample at the end of a run, so every report
// carries these gauges. The peak comes from the kernel's high-water mark,
// so one late sample still sees a transient spike that was freed before
// it. Sampling deliberately does NOT touch the heartbeat counter: a run
// can be stalled while something keeps sampling it.

// ReadRSS returns the process's resident set size in bytes: the second
// field of /proc/self/statm (pages) on Linux, falling back to
// runtime.MemStats.Sys — the Go runtime's OS reservation — where procfs
// is unavailable.
func ReadRSS() int64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		fields := strings.Fields(string(b))
		if len(fields) >= 2 {
			if pages, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// readPeakRSS returns the kernel's resident-set high-water mark in bytes
// (VmHWM in /proc/self/status), or 0 where it is unavailable.
func readPeakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// Gauge names Sample maintains.
const (
	GRSSBytes       = "rss_bytes"
	GRSSPeakBytes   = "rss_peak_bytes"
	GHeapAllocBytes = "heap_alloc_bytes"
	GHeapSysBytes   = "heap_sys_bytes"
	GGoroutines     = "goroutines"
	GGCCycles       = "gc_cycles"
	GGCPauseSeconds = "gc_pause_total_seconds"
)

// Sample captures one resource measurement into the run's registry
// gauges: RSS (current, and the peak from the kernel's high-water mark,
// falling back to the current reading), heap alloc/sys, GC cycle and
// pause totals, and the live goroutine count. Nil-safe: without a
// registry it returns immediately.
func (r *Run) Sample() {
	if r == nil || r.reg == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rss := ReadRSS()
	reg := r.reg
	reg.SetGauge(GRSSBytes, float64(rss))
	reg.MaxGauge(GRSSPeakBytes, float64(max(rss, readPeakRSS())))
	reg.SetGauge(GHeapAllocBytes, float64(ms.HeapAlloc))
	reg.SetGauge(GHeapSysBytes, float64(ms.HeapSys))
	reg.SetGauge(GGoroutines, float64(runtime.NumGoroutine()))
	reg.SetGauge(GGCCycles, float64(ms.NumGC))
	reg.SetGauge(GGCPauseSeconds, time.Duration(ms.PauseTotalNs).Seconds())
}
