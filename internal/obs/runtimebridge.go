package obs

import (
	"math"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// The runtime/metrics bridge pulls the Go runtime's own telemetry —
// GC pause and scheduler-latency distributions, the pacer's heap goal,
// GOMAXPROCS, OS thread creation — into the registry on the same sampler
// cadence as the process gauges, so /metrics, run reports and the
// timeline see scheduler and GC pressure next to the learner's own
// counters. The runtime exports cumulative histograms; the bridge keeps
// the previous bucket counts and folds only the delta into the obs
// histograms, so repeated samples never double-count, and the first
// sample folds everything since process start so even short runs report
// a pause distribution.

// Gauge and histogram names the bridge maintains.
const (
	// GHeapGoalBytes is the GC pacer's current heap goal.
	GHeapGoalBytes = "gc_heap_goal_bytes"
	// GGomaxprocs is the current GOMAXPROCS setting.
	GGomaxprocs = "gomaxprocs"
	// GOSThreads is the cumulative count of OS threads created, from the
	// threadcreate profile (runtime/metrics has no thread-count metric).
	GOSThreads = "os_threads_created"
	// HGCPause is the stop-the-world GC pause distribution.
	HGCPause = "gc_pause"
	// HSchedLatency is the distribution of time goroutines spent runnable
	// before running.
	HSchedLatency = "sched_latency"
)

// Preferred runtime metric names. gcPauseMetrics is an ordered preference
// list: /sched/pauses/total/gc is the modern name, /gc/pauses the older
// alias; whichever the toolchain supports first wins.
var gcPauseMetrics = []string{"/sched/pauses/total/gc:seconds", "/gc/pauses:seconds"}

const (
	heapGoalMetric   = "/gc/heap/goal:bytes"
	gomaxprocsMetric = "/sched/gomaxprocs:threads"
	schedLatMetric   = "/sched/latencies:seconds"
)

// runtimeBridge is the per-registry bridge state: the reusable sample
// batch, which slot holds which metric (-1 when the toolchain lacks it),
// previous cumulative bucket counts for delta folding, and the resolved
// destination histograms.
type runtimeBridge struct {
	samples                            []metrics.Sample
	goalIdx, procsIdx, gcIdx, schedIdx int
	gcLast, schedLast                  []uint64
	gcHist, schedHist                  *Histogram
}

// newRuntimeBridge probes which runtime metrics this toolchain exports
// and builds the sample batch once.
func newRuntimeBridge(g *Registry) *runtimeBridge {
	b := &runtimeBridge{goalIdx: -1, procsIdx: -1, gcIdx: -1, schedIdx: -1}
	have := make(map[string]bool)
	for _, d := range metrics.All() {
		have[d.Name] = true
	}
	add := func(name string) int {
		b.samples = append(b.samples, metrics.Sample{Name: name})
		return len(b.samples) - 1
	}
	if have[heapGoalMetric] {
		b.goalIdx = add(heapGoalMetric)
	}
	if have[gomaxprocsMetric] {
		b.procsIdx = add(gomaxprocsMetric)
	}
	for _, name := range gcPauseMetrics {
		if have[name] {
			b.gcIdx = add(name)
			b.gcHist = g.histogram(HGCPause)
			break
		}
	}
	if have[schedLatMetric] {
		b.schedIdx = add(schedLatMetric)
		b.schedHist = g.histogram(HSchedLatency)
	}
	return b
}

// sample reads one runtime/metrics batch into the registry.
func (b *runtimeBridge) sample(g *Registry) {
	if len(b.samples) > 0 {
		metrics.Read(b.samples)
		if b.goalIdx >= 0 {
			g.SetGauge(GHeapGoalBytes, float64(b.samples[b.goalIdx].Value.Uint64()))
		}
		if b.procsIdx >= 0 {
			g.SetGauge(GGomaxprocs, float64(b.samples[b.procsIdx].Value.Uint64()))
		}
		if b.gcIdx >= 0 {
			b.gcLast = foldHistDelta(b.gcHist, b.samples[b.gcIdx].Value.Float64Histogram(), b.gcLast)
		}
		if b.schedIdx >= 0 {
			b.schedLast = foldHistDelta(b.schedHist, b.samples[b.schedIdx].Value.Float64Histogram(), b.schedLast)
		}
	}
	if tc := pprof.Lookup("threadcreate"); tc != nil {
		g.SetGauge(GOSThreads, float64(tc.Count()))
	}
}

// foldHistDelta folds the growth of a cumulative runtime histogram since
// the previous call into h, attributing each new observation the upper
// bound of its runtime bucket (conservative, like the obs histogram's own
// quantiles). Returns the updated previous-counts slice; a nil or
// reshaped last restarts from zero, folding the full cumulative state.
func foldHistDelta(h *Histogram, rh *metrics.Float64Histogram, last []uint64) []uint64 {
	if rh == nil || len(rh.Buckets) != len(rh.Counts)+1 {
		return last
	}
	if len(last) != len(rh.Counts) {
		last = make([]uint64, len(rh.Counts))
	}
	for i, c := range rh.Counts {
		d := c - last[i]
		if d == 0 || d > c { // skip impossible shrink (layout change mid-run)
			last[i] = c
			continue
		}
		ub := rh.Buckets[i+1]
		if math.IsInf(ub, 1) {
			ub = rh.Buckets[i] * 2
		}
		h.observeN(time.Duration(ub*float64(time.Second)), int64(d))
		last[i] = c
	}
	return last
}

// sampleRuntime folds one runtime/metrics reading into the registry,
// building the bridge lazily on first use. Called from Run.Sample, so
// the resource sampler and the timeline share one delta stream and never
// double-count histogram growth.
func (g *Registry) sampleRuntime() {
	g.rtMu.Lock()
	defer g.rtMu.Unlock()
	if g.rt == nil {
		g.rt = newRuntimeBridge(g)
	}
	g.rt.sample(g)
}
