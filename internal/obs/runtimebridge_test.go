package obs

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"time"
)

func TestRuntimeBridgeGauges(t *testing.T) {
	reg := NewRegistry()
	runtime.GC() // guarantee at least one pause in the cumulative history
	reg.sampleRuntime()
	if got := reg.Gauge(GGomaxprocs); got != float64(runtime.GOMAXPROCS(0)) {
		t.Errorf("gomaxprocs gauge = %v, want %v", got, runtime.GOMAXPROCS(0))
	}
	if reg.Gauge(GHeapGoalBytes) <= 0 {
		t.Errorf("heap goal gauge = %v, want > 0", reg.Gauge(GHeapGoalBytes))
	}
	if reg.Gauge(GOSThreads) < 1 {
		t.Errorf("os_threads_created gauge = %v, want >= 1", reg.Gauge(GOSThreads))
	}
	if n := reg.histogram(HGCPause).Count(); n <= 0 {
		t.Errorf("gc_pause histogram count = %d, want > 0 after first sample", n)
	}
}

func TestRuntimeBridgeDeltaFoldNoDoubleCount(t *testing.T) {
	reg := NewRegistry()
	reg.sampleRuntime()
	h := reg.histogram(HGCPause)
	before := h.Count()
	// Back-to-back samples with no intervening GC must not re-fold the
	// cumulative history.
	reg.sampleRuntime()
	if after := h.Count(); after != before {
		t.Errorf("gc_pause count grew %d -> %d with no GC between samples", before, after)
	}
	runtime.GC()
	reg.sampleRuntime()
	if after := h.Count(); after <= before {
		t.Errorf("gc_pause count = %d, want > %d after a forced GC", after, before)
	}
}

func TestRuntimeBridgeSurvivesReset(t *testing.T) {
	reg := NewRegistry()
	reg.sampleRuntime()
	reg.Reset()
	if n := reg.histogram(HGCPause).Count(); n != 0 {
		t.Fatalf("gc_pause count = %d after Reset, want 0", n)
	}
	runtime.GC()
	reg.sampleRuntime()
	// The re-built bridge re-seeds from the full cumulative history.
	if n := reg.histogram(HGCPause).Count(); n <= 0 {
		t.Errorf("gc_pause count = %d after Reset+sample, want > 0", n)
	}
}

func TestFoldHistDelta(t *testing.T) {
	var h Histogram
	rh := &metrics.Float64Histogram{
		Counts:  []uint64{2, 3, 0},
		Buckets: []float64{0, 1e-6, 1e-3, 1},
	}
	last := foldHistDelta(&h, rh, nil)
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	// No growth: nothing folded.
	last = foldHistDelta(&h, rh, last)
	if h.Count() != 5 {
		t.Fatalf("count = %d after no-op fold, want 5", h.Count())
	}
	// One new observation in bucket 1, upper bound 1ms.
	rh.Counts[1]++
	sumBefore := h.sumNS.Load()
	foldHistDelta(&h, rh, last)
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if d := time.Duration(h.sumNS.Load() - sumBefore); d != time.Millisecond {
		t.Errorf("sum grew by %v, want 1ms (bucket upper bound)", d)
	}
}

func TestSampleIncludesRuntimeBridge(t *testing.T) {
	reg := NewRegistry()
	run := NewRun(nil, reg)
	run.Sample()
	if reg.Gauge(GGomaxprocs) <= 0 {
		t.Errorf("Run.Sample did not populate gomaxprocs gauge")
	}
}
