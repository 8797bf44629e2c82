package obs

import (
	"os"
	"runtime"
	"runtime/debug"
	"testing"
)

func TestReadRSSPositive(t *testing.T) {
	if rss := ReadRSS(); rss <= 0 {
		t.Errorf("ReadRSS() = %d, want > 0", rss)
	}
}

func TestRunSampleSetsGauges(t *testing.T) {
	reg := NewRegistry()
	run := NewRun(nil, reg)
	run.Sample()
	for _, name := range []string{GRSSBytes, GRSSPeakBytes, GHeapAllocBytes,
		GHeapSysBytes, GGoroutines, GGCCycles} {
		if reg.Gauge(name) < 0 {
			t.Errorf("gauge %s = %g, want >= 0", name, reg.Gauge(name))
		}
	}
	if reg.Gauge(GRSSBytes) <= 0 || reg.Gauge(GHeapAllocBytes) <= 0 || reg.Gauge(GGoroutines) < 1 {
		t.Errorf("rss/heap/goroutines = %g/%g/%g, want positive",
			reg.Gauge(GRSSBytes), reg.Gauge(GHeapAllocBytes), reg.Gauge(GGoroutines))
	}
	run.Sample()
	// The peak gauge never drops below any sampled RSS value.
	if reg.Gauge(GRSSPeakBytes) < reg.Gauge(GRSSBytes) {
		t.Errorf("peak %g < current %g", reg.Gauge(GRSSPeakBytes), reg.Gauge(GRSSBytes))
	}
}

// TestSamplePeakIncludesFreedAllocation: one sample taken after a large
// allocation was touched and freed must still report a peak that
// includes it — the kernel's high-water mark, not the last reading.
func TestSamplePeakIncludesFreedAllocation(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc/self/status: the peak falls back to the current reading")
	}
	const size = 64 << 20
	buf := make([]byte, size)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1 // touch every page so it is resident
	}
	during := ReadRSS()
	runtime.KeepAlive(buf)
	buf = nil
	debug.FreeOSMemory()
	after := ReadRSS()

	reg := NewRegistry()
	NewRun(nil, reg).Sample()
	// The kernel folds per-thread RSS counts into the high-water mark
	// lazily, so allow it to trail the live reading by an eighth of the
	// allocation; the last reading alone would trail by all of it.
	if peak := reg.Gauge(GRSSPeakBytes); peak < float64(during-size/8) {
		t.Errorf("rss_peak_bytes = %.0f after freeing, below the %d resident while the allocation lived (now %d)",
			peak, during, after)
	}
}

func TestMaxGaugeKeepsPeak(t *testing.T) {
	reg := NewRegistry()
	reg.MaxGauge("x", 10)
	reg.MaxGauge("x", 5)
	if got := reg.Gauge("x"); got != 10 {
		t.Errorf("MaxGauge kept %g, want 10", got)
	}
	reg.MaxGauge("x", 12)
	if got := reg.Gauge("x"); got != 12 {
		t.Errorf("MaxGauge kept %g, want 12", got)
	}
}

func TestSampleDoesNotBeatHeartbeat(t *testing.T) {
	// Sampling must not feed the stall watchdog: a stalled run stays
	// stalled even while something keeps sampling it.
	run := NewRun(nil, NewRegistry())
	before := run.beat.Load()
	run.Sample()
	if run.beat.Load() != before {
		t.Error("Sample() moved the heartbeat counter")
	}
}
